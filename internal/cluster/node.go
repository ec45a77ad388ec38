package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// Node is the in-process Transport: one serve.Store instance (typically with
// its own persist directory, so its segment files are the replication unit)
// plus a kill switch for failure drills. Kill/Revive only affect the
// transport surface — the store itself stays intact, exactly like a
// partitioned-but-healthy process.
type Node struct {
	name  string
	store *serve.Store
	down  atomic.Bool
}

// NewNode wraps store as a cluster node. The caller keeps ownership of the
// store's lifecycle (Close order: coordinator first, then node stores).
func NewNode(name string, store *serve.Store) *Node {
	return &Node{name: name, store: store}
}

// Store returns the wrapped store (for tests and harness wiring).
func (n *Node) Store() *serve.Store { return n.store }

// Kill marks the node unreachable: stages fail (aborting cluster swaps) and
// queries fail over to replicas.
func (n *Node) Kill() { n.down.Store(true) }

// Revive brings the node back.
func (n *Node) Revive() { n.down.Store(false) }

// Down reports whether the node is currently killed.
func (n *Node) Down() bool { return n.down.Load() }

// Name implements Transport.
func (n *Node) Name() string { return n.name }

// hit consults a failpoint twice: globally and per-node (point:":"+name), so
// tests can fault one node out of a healthy fleet.
func (n *Node) hit(ctx context.Context, point string) error {
	if err := faultinject.HitCtx(ctx, point); err != nil {
		return err
	}
	return faultinject.HitCtx(ctx, point+":"+n.name)
}

// Stage implements Transport by applying the sub-batch synchronously to the
// wrapped store; a batch the store refuses (serve.ValidateBatch) fails the
// stage with the store's error.
func (n *Node) Stage(ctx context.Context, batch []serve.Update) (uint64, error) {
	if n.down.Load() {
		return 0, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	if err := n.hit(ctx, FaultNodeStage); err != nil {
		return 0, fmt.Errorf("cluster: stage %s: %w", n.name, err)
	}
	return n.store.ApplyCtx(ctx, batch)
}

// Pin implements Transport.
func (n *Node) Pin() (EpochRef, error) {
	if n.down.Load() {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	return &nodeEpochRef{n: n, e: n.store.AcquireEpoch()}, nil
}

// nodeEpochRef is the in-process EpochRef: a pinned *serve.Epoch plus the
// node it came from (for the down check and failpoints on every query).
type nodeEpochRef struct {
	n        *Node
	e        *serve.Epoch
	released atomic.Bool
}

func (r *nodeEpochRef) Seq() uint64       { return r.e.Seq() }
func (r *nodeEpochRef) Bounds() geom.AABB { return r.e.Bounds() }
func (r *nodeEpochRef) Len() int          { return r.e.Len() }

func (r *nodeEpochRef) Query(req serve.Request) serve.Reply {
	if r.n.down.Load() {
		return serve.Reply{Err: fmt.Errorf("%w: %s", ErrNodeDown, r.n.name)}
	}
	if err := r.n.hit(req.Ctx, FaultNodeQuery); err != nil {
		return serve.Reply{Err: fmt.Errorf("cluster: query %s: %w", r.n.name, err)}
	}
	return r.n.store.QueryPinned(req, r.e)
}

func (r *nodeEpochRef) Release() {
	if !r.released.CompareAndSwap(false, true) {
		panic("cluster: epoch ref released twice: " + r.n.name)
	}
	r.n.store.ReleaseEpoch(r.e)
}

var _ Transport = (*Node)(nil)
