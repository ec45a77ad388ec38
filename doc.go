// Package spatialsim is a spatial data management library for the simulation
// sciences, reproducing the systems landscape of Heinis, Tauheed and Ailamaki,
// "Spatial Data Management Challenges in the Simulation Sciences" (EDBT 2014).
//
// The library lives under internal/:
//
//   - internal/geom, internal/stats, internal/instrument — geometry, summary
//     statistics and cost-accounting substrates;
//   - internal/datagen — synthetic simulation datasets (branched neuron
//     morphologies, clustered particles, uniform fields), movement models and
//     workload generators;
//   - internal/storage — the reproduction's page-device layer: the
//     simulated page/latency disk of the paper's Figure 2 behind a Pager
//     contract, cached by a pin-aware LRU BufferPool (no server links it);
//   - internal/persist — the durability layer, doing its own file I/O:
//     page-aligned epoch segment files (natively serialized R-Tree Compact
//     slabs, or references to the same slabs in older segments) written
//     with one write and one sync, an append-only manifest/WAL with
//     checksummed records and rotation, and crash recovery that falls back
//     one snapshot generation at a time and serves every recovered R-Tree
//     shard as an overlay of the segment image (read onto the heap in one
//     read or mmap'd — one read path, no decoder);
//   - internal/rtree, internal/crtree, internal/kdtree, internal/octree,
//     internal/grid, internal/lsh — the in-memory index families the paper
//     surveys; each tree/grid family also offers a packed read-optimised
//     Compact snapshot (node slab + structure-of-arrays leaves, built by
//     Freeze) serving the zero-allocation visitor query paths. All of them
//     run in the reproduction (E5, simrun -index); the serving store uses
//     the R-Tree only, the one family no other beat through Store.Query by
//     more than the benchmark's bound;
//   - internal/join — nested-loop, plane-sweep, PBSM-style grid, synchronized
//     R-Tree and TOUCH-style spatial joins behind a planner-driven Plan/Exec
//     split: a Planner picks the algorithm from input statistics
//     (cardinality, density, MBR overlap — the paper's criteria) and every
//     algorithm decomposes into independent tasks over shared partitioning
//     machinery (pooled CSR grid cell lists, flat STR hierarchies), with the
//     reference-point technique and emission-site filters guaranteeing no
//     pair is ever produced twice;
//   - internal/moving — throwaway, lazy (grace window) and buffered
//     moving-object update strategies (the paper's comparison, run by
//     simrun and the experiments; the served binaries do not link it);
//   - internal/mesh — mesh connectivity, DLS, OCTOPUS-style and FLAT-style
//     connectivity-driven range queries;
//   - internal/core — SimIndex, the grid-based index with a maintenance cost
//     advisor that the paper's conclusions call for;
//   - internal/planner — what is left of the retired per-shard family
//     planner: a type serve.Config still accepts, with no effect, kept only
//     for the bench/ harness;
//   - internal/par — the worker pool every parallel path shares
//     (ForTasks/ForTasksCtx/ForChunks, one worker-budget rule: <= 0 means
//     GOMAXPROCS), a leaf below the index families: their parallel bulk
//     loads (STR sort-tile slabs, grid cell bands, octants built
//     concurrently), join.Plan.RunParallel (plan tasks tiled over the pool,
//     gathered by one distribution sort of the disjoint task outputs — no
//     merge, no dedup), segment decoding at recovery, full epoch builds and
//     the simulator's monitoring queries;
//   - internal/sim — the time-stepped simulation harness of the paper's
//     Figure 1;
//   - internal/serve — the sharded, epoch-versioned serving subsystem: STR
//     tiles of frozen R-Tree Compact snapshots behind an atomic epoch pointer with
//     per-epoch refcounts, a tile table (an id -> tile map, SQLite R*-Tree
//     %_rowid style) that stages update batches so a publish rebuilds only
//     the tiles a batch dirtied and shares the rest with the previous
//     epoch, generations swapped without blocking readers,
//     scatter/gather range and global-merge kNN queries, epoch-pinned
//     parallel self-joins (Store.SelfJoin), and admission control bounding
//     in-flight queries; every operation flows through one
//     Store.Query(Request) Reply entry point whose Reply reports the
//     executed plan, with a bounded epoch-keyed result cache with query coalescing —
//     dropped wholesale on epoch retirement, so cached results can never
//     go stale; with a persist store attached the subsystem is
//     durable — batches are WAL-journaled as they are staged, a background
//     snapshotter persists published epochs without blocking readers, and
//     serve.Open recovers the newest complete epoch (replaying the WAL
//     tail) on boot; queries are deadline-aware (per-class defaults,
//     caller contexts observed mid-scan) and degrade gracefully — partial
//     results are marked Degraded with per-shard error detail, overload is
//     shed with typed errors, and snapshot/WAL I/O runs behind a
//     retry-and-circuit-breaker guard;
//   - internal/httpapi — the HTTP/JSON wire code both servers share: a
//     query-string parser run once per request whose readers refuse
//     non-finite and malformed parameters with 400; a streaming decoder
//     reading update bodies through one 64 KiB window straight into the
//     batch, accepting, refusing and decoding exactly as encoding/json
//     does; and an append-style encoder writing range/kNN replies from
//     pooled buffers, byte-identical to encoding/json, with Content-Length
//     on every JSON reply;
//   - internal/faultinject — the seed-deterministic failpoint registry
//     (error, latency, torn-write) wired into the persist and serve layers
//     (segment writes and syncs, manifest appends, shard visits), powering
//     the chaos soak (make chaos);
//   - internal/experiments — drivers regenerating every figure and in-text
//     experiment of the paper, E1-E9 (its package doc indexes them:
//     experiment, driver, spatialbench -exp name, paper figure or section),
//     and PagedCompact — the disk-resident paged read path over the
//     serialized R-Tree format that persisted segments hold (the Figure 2
//     disk baseline).
//
// Executables: cmd/spatialbench (run any of the paper's experiments),
// cmd/simrun (run a full simulation with a chosen index),
// cmd/spatialserver (versioned HTTP/JSON range, knn, join, update-batch and
// stats endpoints under /v1/ over internal/serve) and cmd/spatialcluster
// (the same /v1 surface over internal/cluster); both servers serve the one
// handler set in internal/httpapi. The two servers are measured end to end
// and layer by layer by the bench/ harness (make perf). Runnable examples
// are under examples/.
package spatialsim
