package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the repo's second observability layer: where the metrics
// registry answers "how much / how fast", the flight recorder answers
// "why did the controller do that". It keeps a bounded ring of structured
// events, each stamped with a trace ID that correlates everything one
// control cycle touched — the sense that fed it, the decision it reached,
// and the reconfiguration it applied — and serves the recent window as
// JSON on /debug/events.

// Event is one structured record in the flight recorder. Trace groups the
// events of a single control cycle; Component/Host/Phase use the same
// vocabulary as the slog attribute keys (KeyComponent, KeyHost, ...) so a
// log line and a flight-recorder event describing the same moment are
// trivially joinable.
type Event struct {
	// Seq is the recorder-assigned sequence number (monotonic, never
	// reused); the ring keeps the highest-Seq window.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Trace correlates the events of one control cycle.
	Trace string `json:"trace,omitempty"`
	// Span identifies this event within its trace; Parent is the span it
	// was recorded under (possibly on another node — see TraceContext).
	// Both are empty for events recorded outside a distributed trace.
	Span      string `json:"span,omitempty"`
	Parent    string `json:"parent,omitempty"`
	Component string `json:"component,omitempty"`
	Host      string `json:"host,omitempty"`
	// Phase is the control-loop stage: "sense", "decide" or "apply".
	Phase string `json:"phase,omitempty"`
	Name  string `json:"name"`
	// DurationMs is > 0 for span events recorded via Span.End.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// Attrs carries the event's structured payload (JSON-friendly values).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// FlightRecorder is a bounded, concurrency-safe ring buffer of Events.
// Like the metric collectors, a nil *FlightRecorder is a valid no-op:
// instrumented code records unconditionally and pays only a nil check
// when no recorder is attached.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Event // ring; slot for Seq s is (s-1) % cap
	next uint64  // total events recorded; the next Seq is next+1
}

// DefFlightCapacity is the event capacity used when NewFlightRecorder is
// given a non-positive one — enough for several hundred control cycles.
const DefFlightCapacity = 4096

// NewFlightRecorder returns an empty recorder keeping the most recent
// `capacity` events (DefFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefFlightCapacity
	}
	return &FlightRecorder{buf: make([]Event, 0, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full.
// The recorder assigns Seq and fills Time when the caller left it zero.
func (r *FlightRecorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	r.next++
	e.Seq = r.next
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[(e.Seq-1)%uint64(cap(r.buf))] = e
	}
	r.mu.Unlock()
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten); 0 for a nil recorder.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events returns up to limit of the most recent events, oldest first
// (limit <= 0 means everything retained). The result is a copy.
func (r *FlightRecorder) Events(limit int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	for i := n - limit; i < n; i++ {
		// Oldest retained event is Seq next-n+1, stored at (next-n) % cap.
		out = append(out, r.buf[(r.next-uint64(n)+uint64(i))%uint64(cap(r.buf))])
	}
	return out
}

// Span is an in-progress timed event; End records it. A nil *Span (from a
// nil recorder) is a valid no-op.
type Span struct {
	rec   *FlightRecorder
	ev    Event
	start time.Time
}

// StartSpanCtx begins a timed event inside a distributed trace: the span
// records under ctx's trace ID with a parent link to ctx's span, and gets
// a fresh span ID of its own so further work (possibly on other nodes)
// can nest under it via Context. Attach attributes with SetAttr and call
// End to record it with its duration.
func (r *FlightRecorder) StartSpanCtx(ctx TraceContext, component, phase, name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		rec: r,
		ev: Event{
			Trace: ctx.TraceID, Parent: ctx.SpanID, Span: NextSpanID(),
			Component: component, Phase: phase, Name: name,
		},
		start: time.Now(),
	}
}

// RecordCtx appends one instant (un-timed) event inside a distributed
// trace: it is stamped with ctx's trace ID, a parent link to ctx's span,
// and a fresh span ID so the collector can place it in the span tree.
func (r *FlightRecorder) RecordCtx(ctx TraceContext, e Event) {
	if r == nil {
		return
	}
	if ctx.Valid() {
		e.Trace = ctx.TraceID
		e.Parent = ctx.SpanID
		if e.Span == "" {
			e.Span = NextSpanID()
		}
	}
	r.Record(e)
}

// Context returns the trace context pointing at this span, for handing to
// the next hop (remote daemons, report batches, probe trains) so their
// spans nest under it. A nil span yields the zero ("no trace") context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.ev.Trace, SpanID: s.ev.Span}
}

// SetHost stamps the span's eventual event with the recording node's
// name (the Event.Host field).
func (s *Span) SetHost(host string) {
	if s != nil {
		s.ev.Host = host
	}
}

// SetAttr attaches one key/value to the span's eventual event.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.ev.Attrs == nil {
		s.ev.Attrs = make(map[string]any)
	}
	s.ev.Attrs[key] = value
}

// End records the span with its measured duration. Calling End on a nil
// span is a no-op; calling it twice records twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.ev.Time = s.start
	s.ev.DurationMs = float64(time.Since(s.start)) / float64(time.Millisecond)
	s.rec.Record(s.ev)
}

// traceCounter and tracePrefix make NextTraceID unique within a process
// and (with high probability) across the processes whose logs an operator
// merges.
var (
	traceCounter atomic.Uint64
	tracePrefix  = func() string {
		var b [3]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "t0"
		}
		return hex.EncodeToString(b[:])
	}()
)

// NextTraceID returns a fresh trace ID, e.g. "a1b2c3-000017": a random
// per-process prefix plus a monotonic counter.
func NextTraceID() string {
	return fmt.Sprintf("%s-%06d", tracePrefix, traceCounter.Add(1))
}

// eventsPage is the JSON envelope /debug/events serves.
type eventsPage struct {
	// Total counts every event ever recorded; Events holds the filtered
	// recent window, oldest first.
	Total  uint64  `json:"total"`
	Events []Event `json:"events"`
}

// ServeHTTP serves the recent events as JSON, so a *FlightRecorder can be
// mounted directly as the /debug/events handler. Query parameters:
//
//	n=N              at most N events (default 256, 0 = everything retained)
//	trace=ID         only events of one trace (one control cycle)
//	component=NAME   only events of one component
//	phase=NAME       only events of one phase (sense | decide | apply)
func (r *FlightRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	limit := 256
	if s := q.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		limit = n
	}
	trace, component, phase := q.Get("trace"), q.Get("component"), q.Get("phase")
	// Filters apply to the full retained window; the n limit then keeps
	// the most recent survivors.
	events := r.Events(0)
	filtered := events[:0:0]
	for _, e := range events {
		if trace != "" && e.Trace != trace {
			continue
		}
		if component != "" && e.Component != component {
			continue
		}
		if phase != "" && e.Phase != phase {
			continue
		}
		filtered = append(filtered, e)
	}
	if limit > 0 && len(filtered) > limit {
		filtered = filtered[len(filtered)-limit:]
	}
	page := eventsPage{Total: r.Total(), Events: filtered}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page)
}
