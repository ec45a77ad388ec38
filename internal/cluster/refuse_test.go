package cluster

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

// TestClusterRefusesInvalidBoxes: the coordinator refuses a batch holding a
// box with a NaN corner before placement and routing — a refused Bootstrap
// places nothing, and a refused Apply leaves the cluster epoch, every node's
// epoch, item count and WAL, the served self-join and the routing MBRs as
// they were — and a node refuses the same batch staged on it directly.
func TestClusterRefusesInvalidBoxes(t *testing.T) {
	trs := make([]Transport, 3)
	nds := make([]*Node, 3)
	for i := range nds {
		ps, err := persist.Open(t.TempDir(), persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := serve.Open(serve.Config{Shards: 2, Persist: ps})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close(); ps.Close() })
		nds[i] = NewNode(nodeName(i), st)
		trs[i] = nds[i]
	}
	co, err := New(Config{Transports: trs, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)

	bad := geom.AABB{Min: geom.V(1, 1, 1), Max: geom.V(2, math.NaN(), 2)}
	items := clusterItems(300, 8)
	poisoned := slices.Clone(items)
	poisoned[5].Box = bad
	if _, err := co.Bootstrap(poisoned); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("Bootstrap with a NaN corner: %v, want ErrBadRequest", err)
	}
	if len(co.place.Load().tiles) != 0 || co.Epoch() != 0 {
		t.Fatalf("a refused Bootstrap placed %d tiles, epoch %d", len(co.place.Load().tiles), co.Epoch())
	}
	if _, err := co.Bootstrap(items); err != nil {
		t.Fatal(err)
	}

	type nodeState struct {
		epoch  uint64
		items  int
		logged int64
	}
	state := func() (uint64, int, []nodeState) {
		rep := co.Join(context.Background(), serve.JoinRequest{Eps: 1})
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		var ns []nodeState
		for _, n := range nds {
			s := n.Store().Stats()
			ns = append(ns, nodeState{s.Epoch, s.Items, s.Durability.BatchesLogged})
		}
		return co.Epoch(), rep.JoinCount, ns
	}
	epoch, pairs, nodes := state()
	mbrs := slices.Clone(co.tileMBR)
	if pairs == 0 {
		t.Fatal("the self-join finds no pair: the check below would be vacuous")
	}
	batch := []serve.Update{
		{ID: 9000, Box: geom.NewAABB(geom.V(5, 5, 5), geom.V(6, 6, 6))},
		{ID: 3, Delete: true},
		{ID: 9001, Box: bad},
	}
	if _, err := co.Apply(batch); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("Apply with a NaN corner: %v, want ErrBadRequest", err)
	}
	if _, err := nds[1].Stage(context.Background(), batch); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("Stage with a NaN corner: %v, want ErrBadRequest", err)
	}
	e2, p2, n2 := state()
	if e2 != epoch || p2 != pairs || !slices.Equal(n2, nodes) {
		t.Fatalf("a refused batch changed the cluster: epoch %d, %d pairs, nodes %+v; before %d, %d, %+v", e2, p2, n2, epoch, pairs, nodes)
	}
	if !slices.Equal(co.tileMBR, mbrs) {
		t.Fatal("a refused batch grew the routing MBRs")
	}
}
