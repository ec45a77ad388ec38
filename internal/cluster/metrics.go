package cluster

import (
	"spatialsim/internal/obs"
)

// initMetrics registers the spatial_cluster_* series on reg (nil disables).
// Counters are exposed straight off the coordinator's atomics; gauges read
// the live view so scrapes always see the published cluster epoch.
func (c *Coordinator) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("spatial_cluster_epoch", func() float64 { return float64(c.view.Load().Epoch) })
	reg.Gauge("spatial_cluster_nodes", func() float64 { return float64(len(c.nodes)) })
	reg.Gauge("spatial_cluster_nodes_up", func() float64 {
		up := 0
		for _, tr := range c.nodes {
			if d, ok := tr.(interface{ Down() bool }); ok && d.Down() {
				continue
			}
			up++
		}
		return float64(up)
	})
	reg.Gauge("spatial_cluster_tiles", func() float64 { return float64(len(c.place.Load().tiles)) })
	reg.CounterFunc("spatial_cluster_queries_total", func() float64 { return float64(c.queries.Load()) })
	reg.CounterFunc("spatial_cluster_fanout_queries_total", func() float64 { return float64(c.fanouts.Load()) })
	reg.CounterFunc("spatial_cluster_hedges_total", func() float64 { return float64(c.hedges.Load()) })
	reg.CounterFunc("spatial_cluster_failovers_total", func() float64 { return float64(c.failovers.Load()) })
	reg.CounterFunc("spatial_cluster_degraded_total", func() float64 { return float64(c.degradedC.Load()) })
	reg.CounterFunc("spatial_cluster_epoch_swaps_total", func() float64 { return float64(c.swaps.Load()) })
	reg.CounterFunc("spatial_cluster_stage_failures_total", func() float64 { return float64(c.stageFails.Load()) })
	// node_items / result_items is the gather amplification: items the node
	// tasks produced per item returned, 1.0 on complete range replies.
	reg.CounterFunc("spatial_cluster_node_items_total", func() float64 { return float64(c.nodeItems.Load()) })
	reg.CounterFunc("spatial_cluster_result_items_total", func() float64 { return float64(c.resultItems.Load()) })
	for class, name := range [...]string{classRange: "range", classKNN: "knn", classJoin: "join"} {
		c.queryLat[class] = reg.Histogram(obs.Name("spatial_cluster_query_seconds", "class", name))
	}
}
