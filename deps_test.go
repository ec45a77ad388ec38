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
		"internal/catalog": true,
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

// TestServedBinariesLinkedPackages pins the internal packages the two
// served binaries link. A change that adds a package to a server, or
// removes one from it, updates this list on purpose.
func TestServedBinariesLinkedPackages(t *testing.T) {
	want := []string{
		"internal/catalog",
		"internal/cluster",
		"internal/core",
		"internal/crtree",
		"internal/datagen",
		"internal/exec",
		"internal/faultinject",
		"internal/geom",
		"internal/grid",
		"internal/httpapi",
		"internal/index",
		"internal/instrument",
		"internal/join",
		"internal/obs",
		"internal/octree",
		"internal/persist",
		"internal/planner",
		"internal/rtree",
		"internal/serve",
		"internal/stats",
		"internal/storage",
	}
	got := internalDeps(t, "./cmd/spatialserver", "./cmd/spatialcluster")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served binaries link %d internal packages:\n  %s\nwant %d:\n  %s",
			len(got), strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
	}
}
