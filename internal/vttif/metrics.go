package vttif

import (
	"freemeasure/internal/obs"
)

// LocalMetrics holds the per-daemon classifier counters. The zero value is
// the uninstrumented (free) state.
type LocalMetrics struct {
	FramesClassified *obs.Counter // vttif_frames_classified_total
	BytesClassified  *obs.Counter // vttif_bytes_classified_total
}

// NewLocalMetrics registers the local classifier metrics on reg.
func NewLocalMetrics(reg *obs.Registry) LocalMetrics {
	return LocalMetrics{
		FramesClassified: reg.Counter("vttif_frames_classified_total",
			"Ethernet frames classified into the local traffic matrix."),
		BytesClassified: reg.Counter("vttif_bytes_classified_total",
			"Wire bytes classified into the local traffic matrix."),
	}
}

// SetMetrics attaches metrics to the accumulator.
func (l *Local) SetMetrics(m LocalMetrics) {
	l.met.Store(&m)
}

// AggregatorMetrics holds the Proxy-side inference counters.
type AggregatorMetrics struct {
	MatrixUpdates    *obs.Counter // vttif_matrix_updates_total
	TopologyChanges  *obs.Counter // vttif_topology_changes_total
	PairsPruned      *obs.Counter // vttif_pairs_pruned_total
	BadIntervals     *obs.Counter // vttif_bad_interval_reports_total
	RefreshesSkipped *obs.Counter // vttif_topology_refreshes_skipped_total
	DeltasEmitted    *obs.Counter // vttif_deltas_emitted_total
	DeltaOverflows   *obs.Counter // vttif_delta_overflows_total
	SketchEvictions  *obs.Counter // vttif_sketch_evictions_total
}

// NewAggregatorMetrics registers the aggregator metrics on reg and, when
// attached via Aggregator.SetMetrics, a vttif_pairs_active gauge sampling
// the smoothed matrix size.
func NewAggregatorMetrics(reg *obs.Registry) AggregatorMetrics {
	return AggregatorMetrics{
		MatrixUpdates: reg.Counter("vttif_matrix_updates_total",
			"Local traffic matrices fused into the global view."),
		TopologyChanges: reg.Counter("vttif_topology_changes_total",
			"Damped topology changes reported after the hold-down."),
		PairsPruned: reg.Counter("vttif_pairs_pruned_total",
			"Matrix entries dropped after decaying below the keep threshold."),
		BadIntervals: reg.Counter("vttif_bad_interval_reports_total",
			"Daemon reports rejected because their interval gives no finite rate (non-positive, non-finite, or so small a byte count overflows)."),
		RefreshesSkipped: reg.Counter("vttif_topology_refreshes_skipped_total",
			"Topology rebuilds skipped by the dirty check (no threshold-relevant change)."),
		DeltasEmitted: reg.Counter("vttif_deltas_emitted_total",
			"Incremental matrix/topology deltas queued for consumers."),
		DeltaOverflows: reg.Counter("vttif_delta_overflows_total",
			"Delta queue overflows forcing consumers to resynchronize."),
		SketchEvictions: reg.Counter("vttif_sketch_evictions_total",
			"Retained pairs evicted by space-saving admission (only after the pair table first exceeds its cap and the sketch starts)."),
	}
}

// SetMetrics attaches metrics to the aggregator. reg may be nil when the
// metrics were built from a nil registry.
func (a *Aggregator) SetMetrics(m AggregatorMetrics, reg *obs.Registry) {
	a.mu.Lock()
	a.met = m
	a.mu.Unlock()
	reg.GaugeFunc("vttif_pairs_active",
		"VM pairs exactly tracked in the smoothed traffic matrix (at most the pair cap; past it, the retained heavy edges).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.rates))
		})
}
