package serve

// Metrics wiring: with Config.Metrics set, the store registers its serving
// state as named series on an obs.Registry — per-query-class latency
// histograms, the paper's four cost categories computed live from the shard
// instrumentation counters, the robustness counters (sheds, deadline
// expiries, degraded replies, breaker trips, faultinject firings), cache and
// epoch lifecycle series — and cmd/spatialserver exposes the registry at
// /metrics. Everything monotonic is bridged through CounterFunc callbacks
// over the atomics the store already maintains, so metrics add nothing to
// the query hot path beyond one histogram observation per query.

import (
	"sync/atomic"
	"time"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/instrument"
	"spatialsim/internal/obs"
)

// atomicInt64 adapts the store's existing atomic counters into registry
// callbacks.
type atomicInt64 atomic.Int64

func (a *atomicInt64) gauge() obs.GaugeFunc {
	return func() float64 { return float64((*atomic.Int64)(a).Load()) }
}

// serveCostModel converts the live operation counters into the paper's four
// cost categories. The per-operation costs are the in-memory calibration of
// the Figure 2 harness (internal/experiments/figures.go): serving reads
// frozen in-memory snapshots, so page reads are free and "reading data" is
// the cache-miss cost of touching candidate elements.
var serveCostModel = instrument.CostModel{
	NodeTestCost:    22 * time.Nanosecond,
	ElementTestCost: 20 * time.Nanosecond,
	ElementReadCost: 2 * time.Nanosecond,
	OverheadCost:    time.Microsecond,
}

// storeMetrics holds the instrument pointers the query path writes to,
// resolved once at Open so hot-path observation never touches the registry's
// maps.
type storeMetrics struct {
	reg *obs.Registry

	latRange *obs.Histogram
	latKNN   *obs.Histogram
	latJoin  *obs.Histogram

	buildSeconds    *obs.Histogram // freeze+swap of one epoch publish
	walSeconds      *obs.Histogram // one WAL batch append
	snapshotSeconds *obs.Histogram // one epoch snapshot write
	retireAge       *obs.Histogram // epoch age at retirement
}

// latFor returns the latency histogram of the request's query class.
func (m *storeMetrics) latFor(op Op) *obs.Histogram {
	switch op {
	case OpKNN:
		return m.latKNN
	case OpJoin:
		return m.latJoin
	default:
		return m.latRange
	}
}

// initMetrics registers the store's series on reg (nil disables metrics).
// Called once from Open, after the breaker and epoch 0 exist.
func (s *Store) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &storeMetrics{reg: reg}
	hist := func(class string) *obs.Histogram {
		return reg.Histogram(obs.Name("spatial_query_seconds", "class", class))
	}
	m.latRange = hist("range")
	m.latKNN = hist("knn")
	m.latJoin = hist("join")
	m.buildSeconds = reg.Histogram("spatial_epoch_build_seconds")
	m.retireAge = reg.Histogram("spatial_epoch_retire_age_seconds")

	counters := map[string]*atomicInt64{
		"spatial_queries_total":          (*atomicInt64)(&s.queries),
		"spatial_results_total":          (*atomicInt64)(&s.results),
		"spatial_joins_total":            (*atomicInt64)(&s.joins),
		"spatial_join_pairs_total":       (*atomicInt64)(&s.joinPairs),
		"spatial_sheds_total":            (*atomicInt64)(&s.shed),
		"spatial_degraded_total":         (*atomicInt64)(&s.degraded),
		"spatial_deadline_expired_total": (*atomicInt64)(&s.deadlineHits),
		"spatial_cache_hits_total":       (*atomicInt64)(&s.cacheHits),
		"spatial_cache_misses_total":     (*atomicInt64)(&s.cacheMisses),
		"spatial_cache_coalesced_total":  (*atomicInt64)(&s.cacheCoalesced),
		"spatial_epoch_swaps_total":      (*atomicInt64)(&s.swaps),
		"spatial_epochs_retired_total":   (*atomicInt64)(&s.retired),
	}
	for name, v := range counters {
		reg.CounterFunc(name, v.gauge())
	}
	reg.CounterFunc("spatial_faultinject_triggered_total", func() float64 {
		return float64(faultinject.TotalTriggered())
	})

	reg.Gauge("spatial_in_flight", (*atomicInt64)(&s.inFlight).gauge())
	reg.Gauge("spatial_peak_in_flight", (*atomicInt64)(&s.peak).gauge())
	reg.Gauge("spatial_queued", (*atomicInt64)(&s.queued).gauge())
	reg.Gauge("spatial_epoch_seq", func() float64 { return float64(s.epoch.Load().seq) })
	reg.Gauge("spatial_epoch_items", func() float64 { return float64(s.epoch.Load().items) })
	reg.Gauge("spatial_epoch_pins", func() float64 { return float64(s.epoch.Load().pins.Load()) })
	reg.Gauge("spatial_epoch_age_seconds", func() float64 {
		return time.Since(s.epoch.Load().born).Seconds()
	})
	// Memory by owner: the tile table's materialised item slices (0 at rest,
	// when every clean tile's items live only in its image) and the current
	// epoch's images, at their serialized size.
	reg.Gauge(obs.Name("spatial_mem_bytes", "owner", "tile_items"), func() float64 {
		return float64(s.tiles.itemBytes.Load())
	})
	reg.Gauge(obs.Name("spatial_mem_bytes", "owner", "images"), func() float64 {
		e := s.acquire()
		defer s.release(e)
		n := 0
		for i := range e.shards {
			n += e.shards[i].snap.BinarySize()
		}
		return float64(n)
	})

	// The paper's cost categories as live monotonic series. Shard counters
	// accumulate per epoch and reset on swap, so the scrape folds the running
	// epoch's counters over the accumulated totals of every retired epoch
	// (folded in maybeRetire) — the sum never goes backward.
	for _, cat := range []string{
		instrument.CatReadingData,
		instrument.CatIntersectTree,
		instrument.CatIntersectElement,
		instrument.CatRemaining,
	} {
		cat := cat
		reg.CounterFunc(obs.Name("spatial_cost_seconds_total", "category", cat), func() float64 {
			snap, queries := s.costSnapshot()
			return serveCostModel.Apply(snap, queries).Get(cat).Seconds()
		})
	}

	if s.cfg.Persist != nil {
		s.cfg.Persist.RegisterMetrics(reg)
		m.walSeconds = reg.Histogram("spatial_wal_append_seconds")
		m.snapshotSeconds = reg.Histogram("spatial_snapshot_seconds")
		walCounters := map[string]*atomicInt64{
			"spatial_snapshots_total":         (*atomicInt64)(&s.snapshots),
			"spatial_snapshot_errors_total":   (*atomicInt64)(&s.snapErrs),
			"spatial_snapshots_skipped_total": (*atomicInt64)(&s.snapSkipped),
			"spatial_wal_errors_total":        (*atomicInt64)(&s.walErrs),
			"spatial_wal_skipped_total":       (*atomicInt64)(&s.walSkipped),
		}
		for name, v := range walCounters {
			reg.CounterFunc(name, v.gauge())
		}
		reg.CounterFunc("spatial_breaker_trips_total", func() float64 {
			return float64(s.breaker.tripCount())
		})
		// Zero-copy serving series: how many segment files are mapped (the
		// recovered snapshot's own and every older one its references
		// point into), the mapped byte extent, and how much of it is
		// resident in physical memory — the page-fault proxy (bytes not yet
		// resident are faults still to come; a falling resident count is
		// reclaim). All go to zero when the mapped epoch retires.
		reg.Gauge("spatial_mmap_segments", func() float64 {
			if ms := s.mapping.Load(); ms != nil {
				return float64(ms.Files())
			}
			return 0
		})
		reg.Gauge("spatial_mmap_bytes", func() float64 {
			if ms := s.mapping.Load(); ms != nil {
				return float64(ms.Size())
			}
			return 0
		})
		reg.Gauge("spatial_mmap_resident_bytes", func() float64 {
			if ms := s.mapping.Load(); ms != nil {
				if n, ok := ms.Resident(); ok {
					return float64(n)
				}
			}
			return 0
		})
		reg.Gauge("spatial_mmap_zero_copy_shards", func() float64 {
			return float64(s.recovery.ZeroCopyShards)
		})
		reg.Gauge("spatial_breaker_state", func() float64 {
			switch s.breaker.state() {
			case "open":
				return 2
			case "half-open":
				return 1
			default:
				return 0
			}
		})
	}
	s.metrics = m
}

// costSnapshot folds the current epoch's live shard counters over the
// retired-epoch accumulator: the process-lifetime operation totals behind the
// cost-category series.
func (s *Store) costSnapshot() (instrument.CounterSnapshot, int) {
	s.costMu.Lock()
	acc := s.costRetired
	s.costMu.Unlock()
	e := s.acquire()
	for i := range e.shards {
		acc = acc.Add(e.shards[i].snap.Counters().Snapshot())
	}
	s.release(e)
	return acc, int(s.queries.Load())
}

// foldRetiredCounters drops a retiring epoch's hold on its shard images and
// accumulates the counters of every image no epoch holds any more (and the
// epoch's lifetime) into the store-level totals. An image shared by N
// epochs is folded once, when the last of them retires. Called exactly once
// per epoch, from maybeRetire.
func (s *Store) foldRetiredCounters(e *Epoch) {
	var acc instrument.CounterSnapshot
	for i := range e.shards {
		if e.shards[i].refs.Add(-1) != 0 || s.metrics == nil {
			continue
		}
		acc = acc.Add(e.shards[i].snap.Counters().Snapshot())
	}
	if s.metrics == nil {
		return
	}
	s.costMu.Lock()
	s.costRetired = s.costRetired.Add(acc)
	s.costMu.Unlock()
	s.metrics.retireAge.Observe(time.Since(e.born))
}

// QueryLatencyStat is one live per-class latency summary row of a Stats
// snapshot, derived from the metrics histograms (present only when the store
// was opened with Config.Metrics).
type QueryLatencyStat struct {
	Class     string  `json:"class"`
	Count     int64   `json:"count"`
	P50Micros float64 `json:"p50_us"`
	P90Micros float64 `json:"p90_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`
}

// queryLatencyStats assembles the live latency rows (nil without metrics).
func (s *Store) queryLatencyStats() []QueryLatencyStat {
	if s.metrics == nil {
		return nil
	}
	classes := []struct {
		name string
		h    *obs.Histogram
	}{
		{"range", s.metrics.latRange},
		{"knn", s.metrics.latKNN},
		{"join", s.metrics.latJoin},
	}
	var out []QueryLatencyStat
	for _, c := range classes {
		if c.h.Count() == 0 {
			continue
		}
		snap := c.h.SnapshotInto(nil)
		out = append(out, QueryLatencyStat{
			Class:     c.name,
			Count:     snap.Count,
			P50Micros: float64(snap.Quantile(0.5).Microseconds()),
			P90Micros: float64(snap.Quantile(0.9).Microseconds()),
			P99Micros: float64(snap.Quantile(0.99).Microseconds()),
			MaxMicros: float64(time.Duration(snap.Max).Microseconds()),
		})
	}
	return out
}

// Metrics returns the registry the store was opened with (nil when metrics
// are disabled) — harnesses consume latency percentiles from it directly
// instead of keeping bespoke per-request latency slices.
func (s *Store) Metrics() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg
}
