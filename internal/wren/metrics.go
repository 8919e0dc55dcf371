package wren

import (
	"freemeasure/internal/obs"
)

// MonitorMetrics holds the monitor's exported counters. The zero value
// (all-nil collectors) is the uninstrumented state: every field is
// nil-safe, so the hot paths update them unconditionally and pay nothing
// beyond a nil check when no registry is attached.
type MonitorMetrics struct {
	RecordsFed         *obs.Counter   // wren_records_fed_total
	TrainsFormed       *obs.Counter   // wren_trains_formed_total
	SICIncreasing      *obs.Counter   // wren_sic_increasing_total
	SICNonIncreasing   *obs.Counter   // wren_sic_nonincreasing_total
	SICDiscarded       *obs.Counter   // wren_sic_discarded_total
	EstimatesPublished *obs.Counter   // wren_estimates_published_total
	PollSeconds        *obs.Histogram // wren_poll_duration_seconds
}

// NewMonitorMetrics registers the monitor's metrics on reg (a nil reg
// yields the zero value, i.e. no instrumentation).
func NewMonitorMetrics(reg *obs.Registry) MonitorMetrics {
	return MonitorMetrics{
		RecordsFed: reg.Counter("wren_records_fed_total",
			"Capture records ingested by Monitor.Feed."),
		TrainsFormed: reg.Counter("wren_trains_formed_total",
			"Packet trains extracted by the scanner."),
		SICIncreasing: reg.Counter("wren_sic_increasing_total",
			"Trains whose SIC analysis found an increasing RTT trend or loss (congested verdict)."),
		SICNonIncreasing: reg.Counter("wren_sic_nonincreasing_total",
			"Trains whose SIC analysis found a flat RTT trend (uncongested verdict)."),
		SICDiscarded: reg.Counter("wren_sic_discarded_total",
			"Trains discarded as unusable (retransmissions, ambiguous trend, RTO inflation)."),
		EstimatesPublished: reg.Counter("wren_estimates_published_total",
			"Observations folded into a path's bandwidth/latency estimators."),
		PollSeconds: reg.Histogram("wren_poll_duration_seconds",
			"Latency of one Monitor.Poll analysis pass.", obs.DefLatencyBuckets),
	}
}

// SetMetrics attaches metrics to the monitor. Call before feeding traffic;
// the zero value detaches.
func (m *Monitor) SetMetrics(mm MonitorMetrics) {
	m.met.Store(&mm)
}

// RepositoryMetrics holds the trace repository's exported counters.
type RepositoryMetrics struct {
	Batches *obs.Counter // wren_repo_batches_total
	Records *obs.Counter // wren_repo_records_total
	monitor MonitorMetrics
}

// NewRepositoryMetrics registers the repository's metrics on reg. The
// per-origin monitors share one MonitorMetrics set, so the wren_* series
// aggregate across origins.
func NewRepositoryMetrics(reg *obs.Registry) RepositoryMetrics {
	return RepositoryMetrics{
		Batches: reg.Counter("wren_repo_batches_total",
			"Trace batches received from forwarders."),
		Records: reg.Counter("wren_repo_records_total",
			"Capture records received from forwarders."),
		monitor: NewMonitorMetrics(reg),
	}
}

// ForwarderMetrics holds the trace forwarder's exported counters.
type ForwarderMetrics struct {
	Reconnects  *obs.Counter // wren_forwarder_reconnects_total
	LostRecords *obs.Counter // wren_forwarder_lost_records_total
}

// NewForwarderMetrics registers the forwarder's metrics on reg.
func NewForwarderMetrics(reg *obs.Registry) ForwarderMetrics {
	return ForwarderMetrics{
		Reconnects: reg.Counter("wren_forwarder_reconnects_total",
			"Successful redials to the trace repository after a broken connection."),
		LostRecords: reg.Counter("wren_forwarder_lost_records_total",
			"Buffered records discarded because the repository stayed unreachable (or too large for any frame)."),
	}
}

// SetMetrics attaches metrics to the forwarder. Call before feeding
// traffic; the zero value detaches.
func (f *Forwarder) SetMetrics(fm ForwarderMetrics) {
	f.mu.Lock()
	f.met = fm
	f.mu.Unlock()
}

// SetMetrics attaches metrics to the repository and to every current and
// future per-origin monitor.
func (r *Repository) SetMetrics(rm RepositoryMetrics) {
	r.mu.Lock()
	r.met = rm
	for _, m := range r.monitors {
		m.SetMetrics(rm.monitor)
	}
	r.mu.Unlock()
}
