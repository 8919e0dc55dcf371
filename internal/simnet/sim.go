package simnet

import "container/heap"

// Sim is the discrete-event engine. Events fire in timestamp order;
// same-timestamp events fire in scheduling order, which keeps runs fully
// deterministic.
type Sim struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
}

// NewSim returns an engine at time zero with no pending events.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventsFired returns how many events have executed so far.
func (s *Sim) EventsFired() uint64 { return s.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (s *Sim) Pending() int { return s.events.Len() }

// Schedule runs fn at the absolute simulated time at. Scheduling in the
// past panics: it would silently reorder causality.
func (s *Sim) Schedule(at Time, fn func()) {
	if at < s.now {
		panic("simnet: scheduling event in the past")
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, fn: fn})
}

// After runs fn d after the current simulated time.
func (s *Sim) After(d Duration, fn func()) {
	if d < 0 {
		panic("simnet: negative delay")
	}
	s.Schedule(s.now.Add(d), fn)
}

// Step fires the next event, if any, and reports whether one fired.
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(event)
	s.now = ev.at
	s.fired++
	ev.fn()
	return true
}

// RunUntil fires events until the queue is empty or the next event is
// strictly after t, then advances the clock to t.
func (s *Sim) RunUntil(t Time) {
	for s.events.Len() > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return ev
}
