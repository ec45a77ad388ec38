package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForTasksCoversAllTasksOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		for _, n := range []int{0, 1, 7, 1000} {
			var mu sync.Mutex
			seen := make(map[int]int)
			ForTasks(n, workers, func(_, task int) {
				mu.Lock()
				seen[task]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("workers=%d n=%d: %d distinct tasks run", workers, n, len(seen))
			}
			for task, count := range seen {
				if count != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, task, count)
				}
			}
		}
	}
}

// TestForTasksCtxCancelAfterLastClaim: a context that ends inside the last
// task, when every task is already claimed, leaves a complete run — not
// one reported cancelled because a worker looped after the end. A context
// that ended before the run claims nothing.
func TestForTasksCtxCancelAfterLastClaim(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 200; run++ {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			complete := ForTasksCtx(ctx, n, workers, func(_, task int) {
				ran.Add(1)
				if task == n-1 {
					cancel()
				}
			})
			cancel()
			if !complete || ran.Load() != n {
				t.Fatalf("workers=%d run %d: complete=%v after %d of %d tasks", workers, run, complete, ran.Load(), n)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if ForTasksCtx(ctx, n, workers, func(int, int) { t.Error("a task ran after the context ended") }) {
			t.Fatalf("workers=%d: a run under an ended context reported complete", workers)
		}
	}
}

func TestForChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 10, 999} {
			covered := make([]int, n)
			var mu sync.Mutex
			ForChunks(n, workers, func(_, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				mu.Unlock()
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: element %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestWorkersClamp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ workers, tasks, want int }{
		{0, 1000, 4}, {-1, 1000, 4}, {0, 3, 3}, {8, 5, 5}, {2, 5, 2}, {0, 0, 1}, {3, 0, 1},
	} {
		if got := Workers(c.workers, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.tasks, got, c.want)
		}
	}
}

// severalWorkers reports whether run, which calls the given task function
// once per task it hands out, has more than one worker: the first worker's
// first task waits, up to a bound, for another worker to run one, so a pool
// of one goroutine fails after the bound instead of hanging.
func severalWorkers(run func(task func(worker int))) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	other := make(chan struct{})
	var first atomic.Int64
	var once sync.Once
	run(func(worker int) {
		if first.CompareAndSwap(0, int64(worker)+1) {
			select {
			case <-other:
			case <-ctx.Done():
			}
		} else if first.Load() != int64(worker)+1 {
			once.Do(func() { close(other) })
		}
	})
	select {
	case <-other:
		return true
	default:
		return false
	}
}

// TestForTasksDefaultWorkersUseGOMAXPROCS: workers = 0 means GOMAXPROCS,
// as every caller documents ("<= 0 uses GOMAXPROCS"), not one goroutine.
func TestForTasksDefaultWorkersUseGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if !severalWorkers(func(task func(int)) {
		ForTasks(1000, 0, func(worker, _ int) { task(worker) })
	}) {
		t.Fatal("ForTasks(1000, 0, ...) ran on one worker under GOMAXPROCS(4)")
	}
}

// TestForChunksDefaultWorkersUseGOMAXPROCS is the same check for ForChunks.
func TestForChunksDefaultWorkersUseGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if !severalWorkers(func(task func(int)) {
		ForChunks(1000, 0, func(worker, _, _ int) { task(worker) })
	}) {
		t.Fatal("ForChunks(1000, 0, ...) ran on one chunk under GOMAXPROCS(4)")
	}
}
