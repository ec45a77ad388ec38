// Package sim implements the time-stepped simulation harness of Figure 1 of
// the paper: at every step the spatial model is updated (movement + index
// maintenance) and then monitored (range and kNN queries, periodic spatial
// self-joins for e.g. synapse detection). The harness drives any index.Index,
// which is exactly the experiment the paper's conclusions call for — compare
// the *total* per-step cost (maintenance + queries) across index designs, not
// just query latency.
package sim

import (
	"fmt"
	"time"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/par"
)

// Config configures a simulation run.
type Config struct {
	// QueriesPerStep is the number of monitoring range queries per step.
	QueriesPerStep int
	// QuerySelectivity is the volume fraction of the universe each range
	// query covers (default 1e-4).
	QuerySelectivity float64
	// KNNPerStep is the number of k-nearest-neighbor queries per step.
	KNNPerStep int
	// K is the number of neighbors per kNN query (default 8).
	K int
	// JoinEvery runs a self-join every JoinEvery steps (0 disables joins).
	JoinEvery int
	// JoinEps is the distance threshold of the self-join.
	JoinEps float64
	// Seed seeds the query generators.
	Seed int64
	// Workers > 1 runs the monitoring queries of every step on that many
	// goroutines (internal/par); 0 or 1 keeps the sequential path.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.QuerySelectivity <= 0 {
		c.QuerySelectivity = 1e-4
	}
	if c.K <= 0 {
		c.K = 8
	}
	return c
}

// StepStats reports what happened during one simulation step.
type StepStats struct {
	Step         int
	Movement     datagen.MovementStats
	UpdateTime   time.Duration
	QueryTime    time.Duration
	JoinTime     time.Duration
	RangeResults int
	KNNResults   int
	JoinPairs    int
}

// TotalTime returns the total wall-clock cost of the step.
func (s StepStats) TotalTime() time.Duration { return s.UpdateTime + s.QueryTime + s.JoinTime }

// RunStats aggregates the per-step statistics of a run.
type RunStats struct {
	Steps       []StepStats
	TotalUpdate time.Duration
	TotalQuery  time.Duration
	TotalJoin   time.Duration
}

// Total returns the total wall-clock cost of the run.
func (r RunStats) Total() time.Duration { return r.TotalUpdate + r.TotalQuery + r.TotalJoin }

// String summarizes the run.
func (r RunStats) String() string {
	return fmt.Sprintf("steps=%d update=%v query=%v join=%v total=%v",
		len(r.Steps), r.TotalUpdate, r.TotalQuery, r.TotalJoin, r.Total())
}

// rebuilder is implemented by strategies (moving.Throwaway) whose maintenance
// happens in an explicit rebuild; the harness triggers it inside the update
// phase so the cost is attributed correctly.
type rebuilder interface {
	Rebuild()
}

// Simulation drives a dataset, a movement model and a spatial index through
// time steps.
type Simulation struct {
	Dataset  *datagen.Dataset
	Movement datagen.MovementModel
	Index    index.Index
	cfg      Config
	step     int
}

// New builds a simulation and loads the index with the dataset (bulk loading
// when the index supports it).
func New(dataset *datagen.Dataset, movement datagen.MovementModel, ix index.Index, cfg Config) *Simulation {
	s := &Simulation{Dataset: dataset, Movement: movement, Index: ix, cfg: cfg.withDefaults()}
	items := make([]index.Item, dataset.Len())
	for i := range dataset.Elements {
		items[i] = index.Item{ID: dataset.Elements[i].ID, Box: dataset.Elements[i].Box}
	}
	if loader, ok := ix.(index.BulkLoader); ok {
		loader.BulkLoad(items)
	} else {
		for _, it := range items {
			ix.Insert(it.ID, it.Box)
		}
	}
	return s
}

// Step advances the simulation by one time step: movement + index
// maintenance, then monitoring queries, then (optionally) the self-join.
func (s *Simulation) Step() StepStats {
	s.step++
	stats := StepStats{Step: s.step}

	// Update phase: move the model, then maintain the index.
	oldBoxes := make([]geom.AABB, s.Dataset.Len())
	for i := range s.Dataset.Elements {
		oldBoxes[i] = s.Dataset.Elements[i].Box
	}
	stats.Movement = s.Movement.Step(s.Dataset)

	start := time.Now()
	if batch, ok := s.Index.(index.BatchUpdater); ok {
		moves := make([]index.Move, 0, s.Dataset.Len())
		for i := range s.Dataset.Elements {
			e := &s.Dataset.Elements[i]
			if e.Box != oldBoxes[i] {
				moves = append(moves, index.Move{ID: e.ID, OldBox: oldBoxes[i], NewBox: e.Box})
			}
		}
		batch.ApplyMoves(moves)
	} else {
		for i := range s.Dataset.Elements {
			e := &s.Dataset.Elements[i]
			if e.Box != oldBoxes[i] {
				s.Index.Update(e.ID, oldBoxes[i], e.Box)
			}
		}
	}
	if rb, ok := s.Index.(rebuilder); ok {
		rb.Rebuild()
	}
	stats.UpdateTime = time.Since(start)

	// Monitoring phase: range and kNN queries at data-dependent locations.
	start = time.Now()
	seed := s.cfg.Seed + int64(s.step)
	if s.cfg.QueriesPerStep > 0 {
		queries := datagen.GenerateDataCenteredQueries(s.Dataset, s.cfg.QueriesPerStep, s.cfg.QuerySelectivity, seed)
		stats.RangeResults += s.monitor(len(queries), func(i int) int {
			n := 0
			s.Index.Search(queries[i], func(index.Item) bool {
				n++
				return true
			})
			return n
		})
	}
	if s.cfg.KNNPerStep > 0 {
		points := datagen.GenerateKNNQueries(s.cfg.KNNPerStep, s.Dataset.Universe, seed+7919)
		stats.KNNResults += s.monitor(len(points), func(i int) int {
			return len(s.Index.KNN(points[i], s.cfg.K))
		})
	}
	stats.QueryTime = time.Since(start)

	// Periodic self-join (e.g. synapse detection).
	if s.cfg.JoinEvery > 0 && s.step%s.cfg.JoinEvery == 0 {
		start = time.Now()
		items := make([]index.Item, s.Dataset.Len())
		for i := range s.Dataset.Elements {
			items[i] = index.Item{ID: s.Dataset.Elements[i].ID, Box: s.Dataset.Elements[i].Box}
		}
		pairs := join.SelfGridJoin(items, join.Options{Eps: s.cfg.JoinEps}, join.GridJoinConfig{})
		stats.JoinPairs = len(pairs)
		stats.JoinTime = time.Since(start)
	}
	return stats
}

// monitor runs query(i) for every i in [0, n) and returns the sum of the
// result counts. With Workers > 1 the queries run on the worker pool, after
// the index's deferred maintenance (lazy rebuilds, buffered updates) is
// forced so that its reads are safe from many goroutines; each query owns
// one slot of the count slice, so the workers share nothing.
func (s *Simulation) monitor(n int, query func(i int) int) int {
	total := 0
	if s.cfg.Workers <= 1 {
		for i := 0; i < n; i++ {
			total += query(i)
		}
		return total
	}
	if p, ok := s.Index.(index.Preparer); ok {
		p.PrepareForRead()
	}
	counts := make([]int, n)
	par.ForTasks(n, s.cfg.Workers, func(_, i int) { counts[i] = query(i) })
	for _, c := range counts {
		total += c
	}
	return total
}

// Run executes the given number of steps and aggregates their statistics.
func (s *Simulation) Run(steps int) RunStats {
	var run RunStats
	for i := 0; i < steps; i++ {
		st := s.Step()
		run.Steps = append(run.Steps, st)
		run.TotalUpdate += st.UpdateTime
		run.TotalQuery += st.QueryTime
		run.TotalJoin += st.JoinTime
	}
	return run
}
