// Package par is the worker pool of spatialsim. The paper's central
// complaint is that spatial indexes in the simulation sciences leave every
// core but one idle while batches and rebuilds run serially; every parallel
// path in this library — the per-family parallel bulk loaders, the join
// engine's task tiling, segment decoding at recovery, the store's full
// epoch builds and the simulator's monitoring queries — fans out through the
// three functions here, and they share one worker-budget rule (Workers).
//
// par is a leaf: it imports nothing from spatialsim.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker budget against a task count: a budget <= 0
// uses GOMAXPROCS, and the result is capped at the number of tasks and
// never below 1.
func Workers(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForTasks runs fn(worker, task) for every task in [0, n) on up to
// Workers(workers, n) goroutines. Tasks are handed out in small contiguous
// chunks through an atomic cursor, so uneven task costs still balance
// across workers.
func ForTasks(n, workers int, fn func(worker, task int)) {
	ForTasksCtx(context.Background(), n, workers, fn)
}

// ForTasksCtx is ForTasks with cooperative cancellation: workers check ctx
// between task chunks and stop claiming work once it is done. It reports
// whether every task ran — decided by the claim cursor, so a context that
// ends after the last chunk was claimed still reports a complete run. Tasks
// already started always run to completion — cancellation never tears a
// task's own writes.
func ForTasksCtx(ctx context.Context, n, workers int, fn func(worker, task int)) bool {
	if n <= 0 {
		return true
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return false
			}
			fn(0, i)
		}
		return true
	}
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	// A claimed chunk always runs, so every task ran once all were claimed.
	return next.Load() >= int64(n)
}

// ForChunks splits [0, n) into one contiguous chunk per worker —
// Workers(workers, n) of them — and runs fn(worker, lo, hi) concurrently.
// Use it when per-element cost is uniform and chunk-local state (a private
// bucket, a chunk sort) is wanted.
func ForChunks(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			fn(worker, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
