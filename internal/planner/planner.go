// Package planner once chose an index family per serving shard from a
// statistics catalog. The store now serves R-Tree tiles only: measured
// through Store.Query, no other family beat the R-Tree by more than the
// benchmark's bound on any dataset and query class, so the family choice,
// its catalog and its latency feedback left the serving path. The paper's
// per-workload index comparison still runs in the reproduction
// (internal/experiments E5, cmd/simrun -index). The served join is likewise
// one algorithm, the grid (internal/join); the others the paper surveys run
// in the reproduction (internal/join/survey, E6).
//
// What is left is kept only so the benchmark harness (bench/) builds
// unchanged; a later change to the benchmark drops its use and then this
// package.
package planner

// Planner has no effect: serve.Config.Planner accepts it and ignores it.
type Planner struct{}

// Default returns a Planner.
func Default() *Planner { return &Planner{} }
