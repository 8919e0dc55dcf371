package coord

import "freemeasure/internal/obs"

// StoreMetrics holds the observation-store counters. The zero value is
// the uninstrumented state: every collector is nil-safe.
type StoreMetrics struct {
	Puts         *obs.Counter // coord_store_puts_total
	PutErrors    *obs.Counter // coord_store_put_errors_total
	Scans        *obs.Counter // coord_store_scans_total
	WatchDropped *obs.Counter // coord_store_watch_dropped_total
}

// NewStoreMetrics registers the store metrics on reg (nil reg yields the
// zero value).
func NewStoreMetrics(reg *obs.Registry) StoreMetrics {
	return StoreMetrics{
		Puts: reg.Counter("coord_store_puts_total",
			"Observation records accepted by the coordination store."),
		PutErrors: reg.Counter("coord_store_put_errors_total",
			"Store Put calls rejected (validation, closed store, log append failure)."),
		Scans: reg.Counter("coord_store_scans_total",
			"Versioned Scan snapshots served by the coordination store."),
		WatchDropped: reg.Counter("coord_store_watch_dropped_total",
			"Watch records lost to subscribers that fell behind their buffer."),
	}
}

// MapMetrics holds the bandwidth-map publisher's counters and gauges.
type MapMetrics struct {
	Publishes  *obs.Counter // coord_map_publish_total
	Generation *obs.Gauge   // coord_map_generation
	Entries    *obs.Gauge   // coord_map_entries
}

// NewMapMetrics registers the map metrics on reg.
func NewMapMetrics(reg *obs.Registry) MapMetrics {
	return MapMetrics{
		Publishes: reg.Counter("coord_map_publish_total",
			"Bandwidth maps atomically published."),
		Generation: reg.Gauge("coord_map_generation",
			"Generation of the currently published bandwidth map (monotonic)."),
		Entries: reg.Gauge("coord_map_entries",
			"Path entries in the currently published bandwidth map."),
	}
}

// Metrics bundles the whole tier for one-call registration (docscheck and
// wrenrepod use this).
type Metrics struct {
	Store StoreMetrics
	Map   MapMetrics
}

// NewMetrics registers every coord metric on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Store: NewStoreMetrics(reg),
		Map:   NewMapMetrics(reg),
	}
}
