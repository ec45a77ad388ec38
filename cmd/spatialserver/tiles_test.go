package main

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
	"spatialsim/internal/rtree"
	"spatialsim/internal/serve"
)

// tileWorkload is a bootstrap plus update batches that keep re-cutting the
// store's tile table: moves of live ids, bursts of new ids packed into one
// spot, random deletes and every fifth batch a wipe of three quarters of
// the space.
func tileWorkload(seed int64) [][]serve.Update {
	r := rand.New(rand.NewSource(seed))
	live := make(map[int64]geom.AABB)
	box := func(c geom.Vec3) geom.AABB { return geom.AABBFromCenter(c, geom.V(0.3, 0.3, 0.3)) }
	rnd := func() geom.Vec3 { return geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100) }
	next := int64(1)
	upsert := func(b *[]serve.Update, id int64, c geom.Vec3) {
		live[id] = box(c)
		*b = append(*b, serve.Update{ID: id, Box: live[id]})
	}
	var out [][]serve.Update
	var boot []serve.Update
	for ; next <= 1200; next++ {
		upsert(&boot, next, rnd())
	}
	out = append(out, boot)
	for k := 1; k < 12; k++ {
		var b []serve.Update
		for j := 0; j < 80; j++ {
			if id := 1 + r.Int63n(next-1); live[id] != (geom.AABB{}) {
				upsert(&b, id, live[id].Center().Add(geom.V(0.4, -0.2, 0.1)))
			}
		}
		hot := rnd()
		for j := 0; j < r.Intn(3)*120; j++ {
			upsert(&b, next, hot.Add(geom.V(r.Float64()*3, r.Float64()*3, r.Float64()*3)))
			next++
		}
		for j := 0; j < 30; j++ {
			id := 1 + r.Int63n(next-1)
			delete(live, id)
			b = append(b, serve.Update{ID: id, Delete: true})
		}
		if k%5 == 3 {
			for id, bx := range live {
				if c := bx.Center(); c.X < 50 || c.Y < 50 {
					delete(live, id)
					b = append(b, serve.Update{ID: id, Delete: true})
				}
			}
			slices.SortFunc(b, func(x, y serve.Update) int { return int(x.ID - y.ID) })
		}
		out = append(out, b)
	}
	return out
}

var epochLabel = regexp.MustCompile(`"epoch":\d+`)

// v1Replies answers a fixed set of /v1 reads against the store's handler,
// with the epoch label blanked: the three ways of feeding the same batches
// publish different numbers of epochs.
func v1Replies(t *testing.T, store *serve.Store) []string {
	t.Helper()
	h := newServer(store).Handler()
	var out []string
	for _, q := range []string{
		"/v1/range?minx=-10&miny=-10&minz=-10&maxx=110&maxy=110&maxz=110",
		"/v1/range?minx=40&miny=40&minz=0&maxx=90&maxy=90&maxz=60",
		"/v1/range?minx=55&miny=55&minz=55&maxx=70&maxy=70&maxz=70&limit=20",
		"/v1/knn?x=75&y=75&z=50&k=25",
		"/v1/knn?x=0&y=0&z=0&k=7",
		"/v1/join?eps=0.2&limit=500",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", q, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", q, rec.Code, body)
		}
		out = append(out, epochLabel.ReplaceAllString(string(body), `"epoch":_`))
	}
	return out
}

// TestTileTableRepliesByteIdentical: the same batches applied one by one,
// by concurrent Apply callers that share one publish, and replayed from the
// WAL after a crash give byte-identical /v1 replies — the tile layout is a
// function of the staged batches, not of how they were grouped into epochs.
func TestTileTableRepliesByteIdentical(t *testing.T) {
	batches := tileWorkload(7)
	cfg := serve.Config{Shards: 2, Workers: 2}

	one, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for _, b := range batches {
		one.Apply(slices.Clone(b))
	}
	want := v1Replies(t, one)

	// Coalesced: the first publish is held inside its shard builds, under
	// the store's build lock, while the other batches are applied by one
	// caller each, started once the previous caller's batch is staged. The
	// next publish then holds every one of them, and no later publish
	// builds a tile.
	gate := make(chan struct{})
	var co *serve.Store
	var held atomic.Bool
	var laterBuilds atomic.Int64
	ccfg := cfg
	ccfg.Build = func(items []index.Item) *rtree.Compact {
		held.Store(true)
		<-gate
		if co.Current().Seq() >= 2 {
			laterBuilds.Add(1)
		}
		return rtree.FreezeItems(items, rtree.Config{})
	}
	if co, err = serve.New(ccfg); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	staged := int64(0)
	for i, b := range batches {
		wg.Add(1)
		go func(b []serve.Update) {
			defer wg.Done()
			if _, err := co.Apply(b); err != nil {
				t.Errorf("apply: %v", err)
			}
		}(slices.Clone(b))
		deadline := time.Now().Add(10 * time.Second)
		for staged += int64(len(b)); co.Stats().UpdatesStaged < staged || (i == 0 && !held.Load()); time.Sleep(20 * time.Microsecond) {
			// The first publish holds the first batch alone.
			if time.Now().After(deadline) {
				close(gate)
				t.Fatal("an Apply did not stage its batch while a publish held the build lock")
			}
		}
	}
	close(gate)
	wg.Wait()
	if n, swaps := laterBuilds.Load(), co.Stats().EpochSwaps; n != 0 || swaps != int64(len(batches)) {
		t.Fatalf("coalesced: %d tile builds after the second publish, %d publishes for %d batches", n, swaps, len(batches))
	}
	for i, got := range v1Replies(t, co) {
		if got != want[i] {
			t.Fatalf("coalesced reply %d differs:\n%.300s\nwant\n%.300s", i, got, want[i])
		}
	}

	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.Persist, dcfg.SnapshotEvery = ps, 5
	st, err := serve.Open(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		st.Apply(slices.Clone(b))
	}
	ps.Close() // crash: no Close, no final snapshot
	ps2, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	dcfg.Persist = ps2
	st2, err := serve.Open(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i, got := range v1Replies(t, st2) {
		if got != want[i] {
			t.Fatalf("reply %d after crash recovery (%+v) differs:\n%.300s\nwant\n%.300s", i, st2.Recovery(), got, want[i])
		}
	}
}

// TestServedBinariesDoNotLinkMoving pins the layering: the serving write
// path stages into the tile table, so neither served binary links the
// paper's moving-object strategies.
func TestServedBinariesDoNotLinkMoving(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".", "../spatialcluster").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "spatialsim/internal/moving" {
			t.Fatal("a served binary links spatialsim/internal/moving")
		}
	}
}
