package coord

import (
	"net/http"
	"sync"
	"sync/atomic"

	"freemeasure/internal/obs"
)

// Publisher owns the atomically published bandwidth map. Consumers read
// whatever Current returns without locks; Publish swaps the pointer after
// stamping a strictly increasing generation, so the visible map never
// goes backwards — not across rebuilds, not across store outages (the
// last good map simply stays up).
type Publisher struct {
	cur atomic.Pointer[BandwidthMap]

	mu     sync.Mutex
	gen    uint64
	met    MapMetrics
	flight *obs.FlightRecorder
	trace  obs.TraceContext
}

// NewPublisher creates a publisher with nothing published yet.
func NewPublisher() *Publisher { return &Publisher{} }

// SetMetrics attaches metrics (zero value detaches).
func (p *Publisher) SetMetrics(m MapMetrics) {
	p.mu.Lock()
	p.met = m
	p.mu.Unlock()
}

// SetFlight attaches a flight recorder: every publication records a
// "map-publish" event under the current trace context.
func (p *Publisher) SetFlight(fl *obs.FlightRecorder) {
	p.mu.Lock()
	p.flight = fl
	p.mu.Unlock()
}

// SetTrace stamps subsequent publications with a distributed-trace
// context (the controller's TraceSink seam); the zero context turns
// tracing off.
func (p *Publisher) SetTrace(ctx obs.TraceContext) {
	p.mu.Lock()
	p.trace = ctx
	p.mu.Unlock()
}

// Publish stamps m with the next generation and makes it the current map,
// returning the stamped copy. The input is not retained; callers may keep
// mutating their builder state. A nil map is ignored.
func (p *Publisher) Publish(m *BandwidthMap) *BandwidthMap {
	if m == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	stamped := *m
	stamped.Generation = p.gen
	stamped.Entries = append([]Record(nil), m.Entries...)
	p.cur.Store(&stamped)
	p.met.Publishes.Inc()
	p.met.Generation.Set(float64(stamped.Generation))
	p.met.Entries.Set(float64(len(stamped.Entries)))
	if p.trace.Valid() {
		p.flight.RecordCtx(p.trace, obs.Event{
			Component: "coord", Phase: "sense", Name: "map-publish",
			Attrs: map[string]any{
				"generation": stamped.Generation, "entries": len(stamped.Entries),
				"store_version": stamped.StoreVersion,
			},
		})
	}
	return &stamped
}

// Current returns the latest published map, nil before the first
// publication. The returned map is shared and must not be mutated.
func (p *Publisher) Current() *BandwidthMap { return p.cur.Load() }

// ServeHTTP serves the current map in its text form — mount at /map.
// Before the first publication it answers 404, which consumers treat as
// "no map yet", distinct from a malformed one.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := p.Current()
	if m == nil {
		http.Error(w, "no bandwidth map published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	m.Serialize(w)
}
