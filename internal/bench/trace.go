package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one op share Op; Parent is the ID of the
// span that caused this one (0 for an op's root).
type Span struct {
	Op      uint64 `json:"op"`
	ID      uint32 `json:"id"`
	Parent  uint32 `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // nowNs clock: since the process started
	EndNs   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until Write. A nil *Tracer is the untraced
// run: every method is a no-op costing one nil check, so the end-to-end
// numbers never pay for tracing.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	ops   uint64
}

// procEpoch anchors nowNs, the one monotonic clock behind every latency
// stamp and span in the package.
var procEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(procEpoch)) }

// NewTracer starts an empty in-memory trace.
func NewTracer() *Tracer { return &Tracer{} }

// NextOp allocates an op id for ops whose spans are recorded from more
// than one goroutine (a relayed frame: injected here, delivered there).
func (t *Tracer) NextOp() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Record stores one finished span.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// OpTrace is the span stack of one op. Each op is driven by one goroutine,
// so the stack needs no lock; finished spans go to the tracer under its.
type OpTrace struct {
	t     *Tracer
	op    uint64
	next  uint32
	stack []uint32
	done  []Span
}

// Op opens a new op. Nil tracer → nil op.
func (t *Tracer) Op() *OpTrace {
	if t == nil {
		return nil
	}
	return &OpTrace{t: t, op: t.NextOp()}
}

// ActiveSpan is a started, unfinished span.
type ActiveSpan struct {
	o     *OpTrace
	span  Span
	depth int
}

// Start opens a span nested under the op's innermost open span.
func (o *OpTrace) Start(layer, name string) *ActiveSpan {
	if o == nil {
		return nil
	}
	o.next++
	var parent uint32
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	o.stack = append(o.stack, o.next)
	return &ActiveSpan{o: o, depth: len(o.stack), span: Span{
		Op: o.op, ID: o.next, Parent: parent, Layer: layer, Name: name,
		StartNs: nowNs(),
	}}
}

// End closes the span (and anything left open beneath it).
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.EndNs = nowNs()
	s.o.stack = s.o.stack[:s.depth-1]
	s.o.done = append(s.o.done, s.span)
}

// Add records an already-measured interval as a child of the innermost
// open span — for layers timed by a wrapper that only learns the duration
// after the fact (the controller's sense and apply phases).
func (o *OpTrace) Add(layer, name string, startNs int64, d time.Duration) {
	if o == nil {
		return
	}
	o.next++
	var parent uint32
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	o.done = append(o.done, Span{Op: o.op, ID: o.next, Parent: parent,
		Layer: layer, Name: name, StartNs: startNs, EndNs: startNs + int64(d)})
}

// Finish hands the op's spans to the tracer.
func (o *OpTrace) Finish() {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.done...)
	o.t.mu.Unlock()
	o.done = nil
}

// Len is how many spans have been recorded: a mark for Since.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Since returns a copy of the spans recorded after mark (0 for all).
func (t *Tracer) Since(mark int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans[mark:]...)
}

// Write emits one JSON object per span, one per line.
func (t *Tracer) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Since(0) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanStats folds a trace into per-(layer.name) duration lists (ms) and
// per-layer self time: a span's duration minus the part of it its direct
// children cover.
type spanStats struct {
	durMs  map[string][]float64 // "layer.name" -> durations
	selfMs map[string]float64   // layer -> summed self time
}

func foldSpans(spans []Span) spanStats {
	st := spanStats{
		durMs:  make(map[string][]float64),
		selfMs: make(map[string]float64),
	}
	type key struct {
		op uint64
		id uint32
	}
	child := make(map[key]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[key{s.Op, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		name := s.Layer + "." + s.Name
		st.durMs[name] = append(st.durMs[name], float64(d)/1e6)
		self := d - child[key{s.Op, s.ID}]
		if self < 0 {
			self = 0
		}
		st.selfMs[s.Layer] += float64(self) / 1e6
	}
	return st
}

// p50 returns the median duration (ms) of the named span, 0 when absent.
func (st spanStats) p50(name string) float64 {
	if len(st.durMs[name]) == 0 {
		return 0
	}
	return median(st.durMs[name])
}

// phaseSumRatio is the tiling check: the summed duration of every
// non-root span directly under a root, over the summed duration of those
// roots. 1.0 means the phases account for the whole op.
func phaseSumRatio(spans []Span, rootName string) float64 {
	type key struct {
		op uint64
		id uint32
	}
	roots := make(map[key]bool)
	var rootNs, childNs int64
	for _, s := range spans {
		if s.Parent == 0 && s.Layer+"."+s.Name == rootName {
			roots[key{s.Op, s.ID}] = true
			rootNs += s.EndNs - s.StartNs
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && roots[key{s.Op, s.Parent}] {
			childNs += s.EndNs - s.StartNs
		}
	}
	if rootNs == 0 {
		return 0
	}
	return float64(childNs) / float64(rootNs)
}
