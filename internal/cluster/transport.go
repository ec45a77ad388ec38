package cluster

import (
	"context"
	"errors"

	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// ErrNodeDown is the transport-level failure of an unreachable node: staging
// against it aborts the cluster swap, querying it triggers failover to the
// tile's replica owners.
var ErrNodeDown = errors.New("cluster: node down")

// ErrNotBootstrapped is returned by coordinator writes before Bootstrap has
// computed a placement — without tiles there is nothing to route by.
var ErrNotBootstrapped = serve.ErrNotBootstrapped

const (
	// FaultNodeStage is the failpoint consulted once per node on the staging
	// (phase-1 write) path; per-node arming appends ":<node name>".
	FaultNodeStage = "cluster.node.stage"
	// FaultNodeQuery is the failpoint consulted once per node query on the
	// scatter path — arming it with latency simulates a slow node (what
	// hedged requests exist for), arming it with errors simulates a flaky
	// one (what failover exists for). Per-node arming appends ":<node name>".
	FaultNodeQuery = "cluster.node.query"
)

// EpochRef is a pinned handle on one node's local epoch: the unit a cluster
// view is assembled from. Queries against the ref always observe exactly the
// pinned generation; Release drops the pin (exactly once — a double release
// is a lifecycle bug and panics in the in-process implementation).
type EpochRef interface {
	// Seq is the node-local epoch sequence the ref pins.
	Seq() uint64
	// Bounds is the MBR of everything the pinned epoch serves — the
	// cluster-level fan-out prune.
	Bounds() geom.AABB
	// Len is the pinned epoch's item count.
	Len() int
	// Query executes one read against the pinned generation under the node
	// store's admission control and deadline policy.
	Query(req serve.Request) serve.Reply
	// Release drops the pin.
	Release()
}

// Transport is the coordinator's view of one node. The in-process
// implementation (Node) wraps a serve.Store directly; an HTTP implementation
// would speak the same shapes over the wire (stage = POST batch, pin = epoch
// lease) without the coordinator changing.
type Transport interface {
	// Name identifies the node in errors, metrics and traces.
	Name() string
	// Stage applies a routed sub-batch to the node's local store, advancing
	// its local epoch (invisible to cluster readers until the coordinator
	// publishes a view). Returns the node-local epoch sequence that includes
	// the batch.
	Stage(ctx context.Context, batch []serve.Update) (uint64, error)
	// Pin pins the node's current local epoch for cluster-view reads.
	Pin() (EpochRef, error)
}
