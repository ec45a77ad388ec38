package main

import (
	"math"
	"testing"
)

// synthetic builds one span per (layer, query): durations in microseconds.
func synthetic(layers map[string][]float64, class string) []span {
	var spans []span
	for _, layer := range []string{lyRTree, lyEpoch, lyStore, lyServer, lyCluster, lyClusterSrv} {
		var clock int64
		for q, us := range layers[layer] {
			spans = append(spans, span{
				ID: len(spans), Layer: layer, Class: class, Query: q,
				Start: clock, End: clock + int64(us*1e3), Parent: -1,
			})
			clock += int64(us*1e3) + 10
		}
	}
	return spans
}

func TestSelfTimeIsParentMinusChild(t *testing.T) {
	spans := synthetic(map[string][]float64{
		lyRTree:      {4, 5, 6},
		lyEpoch:      {5, 7, 9},
		lyStore:      {10, 11, 30},
		lyServer:     {100, 111, 500},
		lyCluster:    {40, 51, 60},
		lyClusterSrv: {300, 351, 400},
	}, tcSmall)
	for layer, want := range map[string]float64{
		lyEpoch:      7 - 5,
		lyStore:      11 - 7,
		lyServer:     111 - 11,
		lyCluster:    51 - 11, // over serve.store, not over spatialserver
		lyClusterSrv: 351 - 51,
	} {
		if got := selfUS(spans, layer, tcSmall); math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got, want)
		}
	}
	if got := durationsUS(spans, lyStore, tcKNN); got != nil {
		t.Errorf("spans of another class leaked in: %v", got)
	}
}

func TestParentsResolveToNextOuterLayer(t *testing.T) {
	spans := synthetic(map[string][]float64{
		lyRTree: {1, 1}, lyEpoch: {2, 2}, lyStore: {3, 3}, lyServer: {4, 4}, lyCluster: {5, 5}, lyClusterSrv: {6, 6},
	}, tcScan)
	resolveParents(spans)
	byID := make(map[int]span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		outer, hasOuter := spanParent[s.Layer]
		if !hasOuter {
			if s.Parent != -1 {
				t.Errorf("%s is outermost but has parent %d", s.Layer, s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s query %d: parent %d does not resolve", s.Layer, s.Query, s.Parent)
		}
		if p.Layer != outer || p.Query != s.Query || p.Class != s.Class {
			t.Errorf("%s query %d: parent is %s query %d", s.Layer, s.Query, p.Layer, p.Query)
		}
	}
}
