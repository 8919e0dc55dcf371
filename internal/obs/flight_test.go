package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(8)
	for i := 1; i <= 20; i++ {
		r.Record(Event{Name: "e", Attrs: map[string]any{"i": i}})
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
	events := r.Events(0)
	if len(events) != 8 {
		t.Fatalf("retained %d events, want 8", len(events))
	}
	// The ring keeps the highest-Seq window, oldest first: 13..20.
	for i, e := range events {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if got := e.Attrs["i"].(int); got != 13+i {
			t.Fatalf("events[%d] attr i = %d, want %d", i, got, 13+i)
		}
	}
	// A limit keeps only the most recent survivors.
	tail := r.Events(3)
	if len(tail) != 3 || tail[0].Seq != 18 || tail[2].Seq != 20 {
		t.Fatalf("Events(3) = %+v, want Seqs 18..20", tail)
	}
}

func TestFlightRecorderBelowCapacity(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Event{Name: "a"})
	r.Record(Event{Name: "b"})
	events := r.Events(0)
	if len(events) != 2 || events[0].Name != "a" || events[1].Name != "b" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", events[0].Seq, events[1].Seq)
	}
	if events[0].Time.IsZero() {
		t.Fatal("Record must stamp a zero Time")
	}
}

func TestNilFlightRecorderIsNoOp(t *testing.T) {
	var r *FlightRecorder
	r.Record(Event{Name: "x"})
	if r.Total() != 0 || r.Events(0) != nil {
		t.Fatal("nil recorder must stay empty")
	}
	span := r.StartSpanCtx(TraceContext{TraceID: "t"}, "c", "sense", "x")
	if span != nil {
		t.Fatal("nil recorder must mint nil spans")
	}
	span.SetAttr("k", "v") // must not panic
	span.End()
}

func TestFlightRecorderConcurrent(t *testing.T) {
	const writers, each = 8, 500
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					r.Record(Event{Name: "direct", Component: "test"})
				} else {
					s := r.StartSpanCtx(NewTrace(), "test", "sense", "span")
					s.SetAttr("writer", w)
					s.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != writers*each {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*each)
	}
	events := r.Events(0)
	if len(events) != 64 {
		t.Fatalf("retained %d, want 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("seqs not contiguous at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewFlightRecorder(4)
	s := r.StartSpanCtx(TraceContext{TraceID: "trace-1"}, "control", "decide", "decide")
	s.SetAttr("steps", 3)
	time.Sleep(time.Millisecond)
	s.End()
	events := r.Events(0)
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
	e := events[0]
	if e.Trace != "trace-1" || e.Component != "control" || e.Phase != "decide" {
		t.Fatalf("span fields wrong: %+v", e)
	}
	if e.DurationMs <= 0 {
		t.Fatalf("DurationMs = %v, want > 0", e.DurationMs)
	}
	if e.Attrs["steps"].(int) != 3 {
		t.Fatalf("attrs = %v", e.Attrs)
	}
}

func TestNextTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NextTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("trace ID %q missing prefix separator", id)
		}
	}
}

// page mirrors the /debug/events JSON envelope for decoding in tests.
type page struct {
	Total  uint64  `json:"total"`
	Events []Event `json:"events"`
}

func TestDebugEventsEndpoint(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(16)
	fr.Record(Event{Trace: "t-1", Component: "control", Phase: "sense", Name: "sense"})
	fr.Record(Event{Trace: "t-1", Component: "control", Phase: "decide", Name: "gate",
		Attrs: map[string]any{"allowed": true, "current_score": 1.5, "target_score": 9.0}})
	fr.Record(Event{Trace: "t-2", Component: "control", Phase: "sense", Name: "sense"})
	mux := NewMux(reg, nil, WithFlight(fr))

	fetch := func(url string) (int, page) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var p page
		if rec.Code == 200 {
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q", ct)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
				t.Fatalf("bad JSON from %s: %v", url, err)
			}
		}
		return rec.Code, p
	}

	code, p := fetch("/debug/events")
	if code != 200 || p.Total != 3 || len(p.Events) != 3 {
		t.Fatalf("GET /debug/events: code=%d page=%+v", code, p)
	}
	if p.Events[0].Seq != 1 || p.Events[2].Seq != 3 {
		t.Fatalf("events not oldest-first: %+v", p.Events)
	}
	if got := p.Events[1].Attrs["target_score"].(float64); got != 9.0 {
		t.Fatalf("gate attrs did not round-trip: %+v", p.Events[1].Attrs)
	}

	if _, p := fetch("/debug/events?trace=t-1"); len(p.Events) != 2 {
		t.Fatalf("trace filter kept %d events, want 2", len(p.Events))
	}
	if _, p := fetch("/debug/events?phase=sense"); len(p.Events) != 2 {
		t.Fatalf("phase filter kept %d events, want 2", len(p.Events))
	}
	if _, p := fetch("/debug/events?trace=t-1&phase=decide"); len(p.Events) != 1 || p.Events[0].Name != "gate" {
		t.Fatalf("combined filter wrong: %+v", p.Events)
	}
	if _, p := fetch("/debug/events?n=1"); len(p.Events) != 1 || p.Events[0].Seq != 3 {
		t.Fatalf("n=1 must keep the most recent event: %+v", p.Events)
	}
	if code, _ := fetch("/debug/events?n=nope"); code != 400 {
		t.Fatalf("bad n: code = %d, want 400", code)
	}

	// The mux also registers the events-total gauge.
	if !strings.Contains(reg.String(), "flight_recorder_events_total 3") {
		t.Fatalf("flight gauge missing:\n%s", reg.String())
	}
}

func TestDebugStateEndpoint(t *testing.T) {
	reg := NewRegistry()
	mux := NewMux(reg, nil, WithState(func() any {
		return map[string]any{"daemon": "h1", "cycles": 7}
	}))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/state", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	var st map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if st["daemon"] != "h1" || st["cycles"].(float64) != 7 {
		t.Fatalf("state = %v", st)
	}

	// A state fn yielding unmarshalable values must 500, not emit garbage.
	bad := NewMux(NewRegistry(), nil, WithState(func() any { return func() {} }))
	rec = httptest.NewRecorder()
	bad.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/state", nil))
	if rec.Code != 500 {
		t.Fatalf("unmarshalable state: code = %d, want 500", rec.Code)
	}
}
