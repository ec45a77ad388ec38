package spatialsim

import (
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// internalDeps returns the spatialsim/internal/... packages the given
// packages link, sorted.
func internalDeps(t *testing.T, pkgs ...string) []string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goBin, append([]string{"list", "-deps"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	var deps []string
	for _, p := range strings.Fields(string(out)) {
		if strings.HasPrefix(p, "spatialsim/internal/") {
			deps = append(deps, strings.TrimPrefix(p, "spatialsim/"))
		}
	}
	sort.Strings(deps)
	return deps
}

// TestReproductionDoesNotLinkServing fences the paper's reproduction off
// from the serving stack: the experiment drivers and the two binaries that
// run them link no serving, cluster, planning or wire package.
func TestReproductionDoesNotLinkServing(t *testing.T) {
	serving := map[string]bool{
		"internal/serve":   true,
		"internal/cluster": true,
		"internal/planner": true,
		"internal/httpapi": true,
	}
	for _, pkg := range []string{"./cmd/spatialbench", "./cmd/simrun", "./internal/experiments"} {
		for _, dep := range internalDeps(t, pkg) {
			if serving[dep] {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
	}
}

// TestIndexFamiliesLinkOnlyThePool fences the index families below the
// engines that use them: the R-Tree, grid and octree link the geometry, the
// index contracts, the counters and the worker pool, and nothing else — no
// join engine. The join engine in turn links no serving, durability or
// cluster package.
func TestIndexFamiliesLinkOnlyThePool(t *testing.T) {
	want := []string{
		"internal/geom",
		"internal/index",
		"internal/instrument",
		"internal/par",
	}
	for _, family := range []string{"rtree", "grid", "octree"} {
		var got []string
		for _, dep := range internalDeps(t, "./internal/"+family) {
			if dep != "internal/"+family {
				got = append(got, dep)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("internal/%s links %v, want %v", family, got, want)
		}
	}
	for _, dep := range internalDeps(t, "./internal/join") {
		switch dep {
		case "internal/serve", "internal/persist", "internal/cluster":
			t.Errorf("internal/join links %s", dep)
		}
	}
}

// TestServedBinariesLinkedPackages pins the internal packages the two
// served binaries link. A change that adds a package to a server, or
// removes one from it, updates this list on purpose.
func TestServedBinariesLinkedPackages(t *testing.T) {
	want := []string{
		"internal/cluster",
		"internal/datagen",
		"internal/faultinject",
		"internal/geom",
		"internal/httpapi",
		"internal/index",
		"internal/instrument",
		"internal/join",
		"internal/obs",
		"internal/par",
		"internal/persist",
		"internal/planner",
		"internal/rtree",
		"internal/serve",
		"internal/stats",
	}
	got := internalDeps(t, "./cmd/spatialserver", "./cmd/spatialcluster")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served binaries link %d internal packages:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
	}
}

// TestPersistDoesItsOwnFileIO fences the durability layer off from the
// reproduction's page-device layer and its experiment drivers: persist
// writes and reads segment files itself.
func TestPersistDoesItsOwnFileIO(t *testing.T) {
	for _, dep := range internalDeps(t, "./internal/persist") {
		switch dep {
		case "internal/storage", "internal/experiments":
			t.Errorf("internal/persist links %s", dep)
		}
	}
}
