// Package cluster scales the serving subsystem from one process to a small
// fleet: STR-partitioned placement of the dataset across 2-3 node instances
// (each node a serve.Store with its own persist directory — segment files
// are the shipping and replication unit), a thin coordinator that
// scatter/gathers range, kNN and join queries over a transport-interface
// fan-out, and epoch-consistent cluster-wide swaps.
//
// # Placement
//
// The dataset is cut into node-sized tiles with the same sort-tile-recursive
// discipline the epoch builder shards with (serve.PartitionSTR), so node
// boundaries nest naturally over shard boundaries. Each tile is owned by a
// primary node plus Replication-1 replicas in round-robin order; writes
// route by box center to the owning tile's nodes (with a delete broadcast
// that keeps a moved item from lingering on its old owner), so a node holds
// exactly the items whose routed tile it owns.
//
// # Reads: exactly-once by tile ownership
//
// A fan-out task is (node, tile set), and every item of a reply is emitted
// by exactly one task — the one that won the item's routed tile. The rule is
// pushed down to the node: a range task queries through the streaming
// serve.Request.Visit door with a visitor that keeps an item only when
// Placement.Route(box) is in the task's tile set, so a node never
// materialises a replica another task answers for, and the gather appends
// the tasks' items into the caller's buffer (serve.Request.Buf of
// Coordinator.Query) — no hash set, no sort. Reply.Items of a range
// therefore come in task-launch order: each task's items together, tasks in
// launch order, deterministic for a fixed view as long as no failover or
// hedge fired, and in no ID order (the cluster join alone sorts its gathered
// input by ID, for a deterministic planner input). Node tasks fill buffers
// lent by index.GetItems, and the fan-out returns a task's buffer only once
// it has received the task: a straggler left running keeps its own.
//
// Before anything is launched, tiles are pruned: every view carries a
// conservative MBR per tile, grown by the coordinator from the upserts it
// routes and never shrunk, and a tile needs no query when the request misses
// that MBR or misses the epoch MBR of any of its owners (an owner holds the
// whole tile). The tiles left are covered greedily by the fewest nodes — the
// node that can take the most tiles first, primaries preferred on ties.
//
// kNN runs in distance order with a cutoff, the Epoch.knnIntoCtx discipline
// lifted one level: the owner nearest the point is asked first, every tile
// whose MBR (or an owner's) lies farther than the k-th distance that answer
// proved is resolved without contacting anyone, only what is left is fanned
// out, and the per-node lists — each cut down to the tiles its task won —
// are folded by (distance, ID) through index.Nearest, the store's own
// cross-shard merge. A localized kNN touches one node.
//
// # Epoch-consistent swaps
//
// A cluster epoch is published in two phases. Stage: the coordinator routes
// the batch into per-node sub-batches and applies them to every node (each
// node's local epoch advances, invisible to cluster readers). Publish: only
// when every node acked its stage, the coordinator pins each node's new
// epoch (serve.Store.AcquireEpoch) into a fresh view and atomically swaps
// the view pointer. Readers pin the view for the duration of a query and
// read through its pinned node epochs (serve.Store.QueryPinned), so every
// read observes one consistent cluster generation end to end — even while
// node-local epochs churn underneath — and a stage failure aborts the swap
// with the old view intact. The superseded view's node pins release when its
// last reader drains, which is what finally lets node epochs retire.
//
// # Partial failure
//
// The coordinator inherits the single-store robustness contract, applied to
// tiles: when a task fails, or has not answered within the hedge delay, its
// tiles are re-assigned to their next owner — a node may be asked twice, for
// disjoint tile sets — and a task wins only the tiles still open when it
// reports, keeping only their items. If every owner of some tile is gone, the
// reply degrades (Reply.Degraded plus per-node error detail, decided by the
// store's serve.Outcome rule and reusing its error vocabulary) rather than
// returning wrong answers; a degraded node reply's items survive only for
// tiles no clean task resolved. So "complete ⇒ equal, degraded ⇒ subset, never
// duplicated" holds by construction, not by hashing. Metrics surface as
// spatial_cluster_* series (node_items_total over result_items_total is the
// gather amplification, 1.0 on complete range replies) and every fan-out
// gets a cluster_fanout span (fan, tiles_pruned) with a node_query child per
// task (node, tiles).
package cluster
