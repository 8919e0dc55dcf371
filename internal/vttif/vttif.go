package vttif

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"freemeasure/internal/ethernet"
)

// Pair is a directed VM-to-VM edge keyed by MAC addresses.
type Pair struct {
	Src, Dst ethernet.MAC
}

// localStripes is the number of independently locked shards in Local. A
// power of two so the stripe index is a mask of the pair hash; 16 stripes
// keep contention negligible well past the core counts we run on.
const localStripes = 16

// localStripe is one shard of the accumulator, padded out to its own cache
// line so neighboring stripe locks don't false-share.
type localStripe struct {
	mu    sync.Mutex
	bytes map[Pair]uint64
	_     [24]byte
}

// Local accumulates per-pair byte counts at one VNET daemon. It is written
// from the daemon's forwarding hot path, so the accumulator is striped by
// pair hash: concurrent relay goroutines land on different locks and the
// critical section stays a single map increment.
type Local struct {
	stripes [localStripes]localStripe
	met     atomic.Pointer[LocalMetrics]
}

// NewLocal returns an empty accumulator.
func NewLocal() *Local {
	l := &Local{}
	for i := range l.stripes {
		l.stripes[i].bytes = make(map[Pair]uint64)
	}
	return l
}

// AddFrame records one frame sent by a local VM.
func (l *Local) AddFrame(src, dst ethernet.MAC, wireBytes int) {
	p := Pair{src, dst}
	s := &l.stripes[pairHash(p)&(localStripes-1)]
	s.mu.Lock()
	s.bytes[p] += uint64(wireBytes)
	s.mu.Unlock()
	if m := l.met.Load(); m != nil {
		m.FramesClassified.Inc()
		m.BytesClassified.Add(uint64(wireBytes))
	}
}

// Snapshot returns the accumulated byte counts, resetting them: the local
// matrix a daemon pushes to the Proxy each reporting period. Frames added
// concurrently land in either this snapshot or the next, never both.
func (l *Local) Snapshot() map[Pair]uint64 {
	out := make(map[Pair]uint64)
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		part := s.bytes
		s.bytes = make(map[Pair]uint64)
		s.mu.Unlock()
		if len(out) == 0 {
			out = part
			continue
		}
		for p, b := range part {
			out[p] += b
		}
	}
	return out
}

// Config tunes the Aggregator.
type Config struct {
	// Alpha is the low-pass EWMA weight applied to each rate update
	// (default 0.3): a sliding aggregation that keeps momentary bursts
	// from flapping the inferred topology.
	Alpha float64
	// PruneFraction drops matrix entries below this fraction of the
	// maximum entry when recovering the topology (default 0.1).
	PruneFraction float64
	// HoldUpdates is how many consecutive updates a new topology must
	// persist before it replaces the reported one (default 3) — the
	// anti-oscillation damping of the paper's earlier work.
	HoldUpdates int
	// DeltaRateFraction is the relative change in a pair's smoothed rate
	// that triggers a DeltaRate emission (default 0.25).
	DeltaRateFraction float64
	// MaxPendingDeltas bounds the un-drained delta queue (default 4096).
	// On overflow the queue is dropped and the next Deltas() call reports
	// a reset so consumers resynchronize from the full matrix.
	MaxPendingDeltas int
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.PruneFraction == 0 {
		c.PruneFraction = 0.1
	}
	if c.HoldUpdates == 0 {
		c.HoldUpdates = 3
	}
	if c.DeltaRateFraction == 0 {
		c.DeltaRateFraction = 0.25
	}
	if c.MaxPendingDeltas == 0 {
		c.MaxPendingDeltas = 4096
	}
	return c
}

// The aggregator holds at most maxPairs pairs exactly. When a report first
// brings one more, it starts a sketchWidth×sketchDepth count-min sketch
// and from then on keeps only the heaviest maxPairs edges exact.
const (
	maxPairs    = 1 << 14
	sketchWidth = 4096
	sketchDepth = 4
)

// Aggregator runs at the Proxy: it fuses the daemons' local matrices into
// the global smoothed traffic matrix and the damped application topology.
// Every pair's smoothed rate is held exactly until the table holds
// maxPairs pairs. Past that a count-min sketch absorbs every pair's rate
// mass and the table becomes a space-saving heavy-edge set: a cold pair
// displaces the lightest retained edge only when its sketch estimate
// beats it. Memory stays O(maxPairs + sketch) whatever the flow count;
// a report costs O(its pairs × log maxPairs).
type Aggregator struct {
	mu  sync.Mutex
	cfg Config

	rates     map[Pair]float64 // smoothed bytes/sec
	owner     map[Pair]string  // which daemon reports each pair
	reporters map[string]bool  // distinct daemons seen, for sketch aging

	// maxPairs is the table cap: the package constant, lowered by tests
	// to cross it at small sizes. cms and byRate are nil until the table
	// first overflows; byRate orders the retained pairs for admission.
	maxPairs int
	cms      *countMin
	byRate   rateHeap

	reported     map[Pair]bool // last reported (damped) topology
	pending      map[Pair]bool
	pendingCount int
	changes      uint64
	updates      uint64
	met          AggregatorMetrics

	// Topology dirty check: cache of the last full refresh. The refresh
	// is skipped when no write could have changed topology membership.
	topoValid     bool
	topoDirty     bool
	topoMax       float64
	topoMaxPair   Pair
	topoThreshold float64

	// Delta emission.
	emitted       map[Pair]float64 // last emitted smoothed rate per pair
	deltas        []Delta
	deltaOverflow bool
}

// NewAggregator returns an empty aggregator.
func NewAggregator(cfg Config) *Aggregator {
	return &Aggregator{
		cfg:       cfg.withDefaults(),
		rates:     make(map[Pair]float64),
		owner:     make(map[Pair]string),
		reporters: make(map[string]bool),
		maxPairs:  maxPairs,
		reported:  make(map[Pair]bool),
		emitted:   make(map[Pair]float64),
	}
}

// Update fuses one daemon's local matrix covering intervalSec seconds.
// Pairs this daemon reported before but omitted now decay toward zero. A
// report whose interval is not a positive finite number, or so small that
// some pair's rate overflows, is rejected whole with an error (and
// counted): one misbehaving daemon can neither take down the proxy nor
// leave an infinite rate that never decays.
func (a *Aggregator) Update(from string, local map[Pair]uint64, intervalSec float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !finiteRates(local, intervalSec) {
		a.met.BadIntervals.Inc()
		return fmt.Errorf("vttif: interval %v in report from %q gives no finite rate", intervalSec, from)
	}
	a.updateLocked(from, local, intervalSec)
	a.updates++
	a.met.MatrixUpdates.Inc()
	a.refreshTopologyLocked()
	return nil
}

// updateLocked is the one update path: the exact EWMA for every pair the
// table holds or has room for, sketch admission for the rest.
func (a *Aggregator) updateLocked(from string, local map[Pair]uint64, intervalSec float64) {
	alpha := a.cfg.Alpha
	a.reporters[from] = true
	if a.cms != nil {
		// The sketch holds raw per-report rates aged geometrically, so a
		// steady rate r converges to mass r/alpha. Aging is spread across
		// reporters: with R daemons each Update scales by (1−alpha)^(1/R),
		// so one full round ages by (1−alpha), as the EWMA does.
		a.cms.scale(math.Pow(1-alpha, 1/float64(len(a.reporters))))
	}
	for p, b := range local {
		rate := float64(b) / intervalSec
		old, held := a.rates[p]
		if !held && len(a.rates) >= a.maxPairs {
			a.admitLocked(p, rate, from)
			continue
		}
		next := alpha*rate + (1-alpha)*old
		if a.cms != nil {
			a.cms.add(p, rate)
			a.pushRateLocked(p, next)
		}
		a.rates[p] = next
		a.owner[p] = from
		a.noteRateLocked(p, old, next)
	}
	// Decay-on-omission covers the retained pairs; pairs held only in the
	// sketch age through its scaling above.
	for p, o := range a.owner {
		if o != from {
			continue
		}
		if _, ok := local[p]; ok {
			continue
		}
		old := a.rates[p]
		next := old * (1 - alpha)
		if next < 1 { // below 1 byte/s: gone
			a.dropLocked(p)
			a.met.PairsPruned.Inc()
			a.noteRateLocked(p, old, 0)
		} else {
			a.rates[p] = next
			if a.cms != nil {
				a.pushRateLocked(p, next)
			}
			a.noteRateLocked(p, old, next)
		}
	}
}

// finiteRates reports whether intervalSec is positive and finite and turns
// every byte count in local into a finite rate. A byte count is below
// 2^64, so an interval of at least 1e-280 s keeps every rate under 2e299
// and only a smaller one needs the per-pair check.
func finiteRates(local map[Pair]uint64, intervalSec float64) bool {
	if !(intervalSec > 0) || math.IsInf(intervalSec, 1) {
		return false
	}
	if intervalSec >= 1e-280 {
		return true
	}
	for _, b := range local {
		if math.IsInf(float64(b)/intervalSec, 1) {
			return false
		}
	}
	return true
}

// startSketchLocked starts the count-min sketch when the table first
// overflows, seeding it with each retained pair's mass rate/alpha so that
// alpha·estimate starts at or above every retained pair's smoothed rate,
// and orders the retained pairs by rate for admission.
func (a *Aggregator) startSketchLocked() {
	a.cms = newCountMin(sketchWidth, sketchDepth)
	a.byRate = make(rateHeap, 0, 2*a.maxPairs)
	a.byRate.rebuild(a.rates)
	for p, r := range a.rates {
		a.cms.add(p, r/a.cfg.Alpha)
	}
}

// admitLocked handles a reported pair the full table does not hold,
// starting the sketch if this is the first. It adds the pair's rate to the
// sketch and runs the space-saving admission test: alpha times the sketch
// estimate — an overestimate of the pair's smoothed rate — must beat the
// lightest retained edge, which the pair then displaces. The admitted pair
// starts from the evicted minimum plus its own contribution, capped by the
// estimate. Finding and replacing the minimum costs O(log maxPairs).
func (a *Aggregator) admitLocked(p Pair, rate float64, from string) {
	if a.cms == nil {
		a.startSketchLocked()
	}
	alpha := a.cfg.Alpha
	estRate := alpha * a.cms.add(p, rate)
	minP, minRate := a.byRate.min(a.rates)
	if estRate <= minRate {
		return
	}
	a.dropLocked(minP)
	a.met.SketchEvictions.Inc()
	a.noteRateLocked(minP, minRate, 0)
	seed := min(minRate+alpha*rate, estRate)
	a.rates[p] = seed
	a.owner[p] = from
	a.byRate.replaceMin(p, seed)
	a.noteRateLocked(p, 0, seed)
}

// pushRateLocked records retained pair p's new rate r in the admission
// heap, first rebuilding the heap from the table once stale entries have
// doubled it.
func (a *Aggregator) pushRateLocked(p Pair, r float64) {
	if len(a.byRate) >= 2*a.maxPairs {
		a.byRate.rebuild(a.rates)
	}
	a.byRate.push(p, r)
}

func (a *Aggregator) dropLocked(p Pair) {
	delete(a.rates, p)
	delete(a.owner, p)
}

// rawTopologyLocked prunes the smoothed matrix by PruneFraction of its max,
// refreshing the dirty-check cache as a side effect.
func (a *Aggregator) rawTopologyLocked() map[Pair]bool {
	max := 0.0
	var maxPair Pair
	for p, r := range a.rates {
		if r > max {
			max, maxPair = r, p
		}
	}
	topo := make(map[Pair]bool)
	threshold := max * a.cfg.PruneFraction
	if max > 0 {
		for p, r := range a.rates {
			if r >= threshold {
				topo[p] = true
			}
		}
	}
	a.topoMax, a.topoMaxPair, a.topoThreshold = max, maxPair, threshold
	a.topoValid, a.topoDirty = true, false
	return topo
}

func sameTopo(a, b map[Pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

func (a *Aggregator) refreshTopologyLocked() {
	// Cheap short-circuit: when no write this round could have moved a
	// pair across the prune threshold and no candidate topology is mid
	// hold-down, the full rebuild below is provably a no-op.
	if a.topoValid && !a.topoDirty && a.pending == nil {
		a.met.RefreshesSkipped.Inc()
		return
	}
	raw := a.rawTopologyLocked()
	if sameTopo(raw, a.reported) {
		a.pending = nil
		a.pendingCount = 0
		return
	}
	if a.pending != nil && sameTopo(raw, a.pending) {
		a.pendingCount++
	} else {
		a.pending = raw
		a.pendingCount = 1
	}
	if a.pendingCount >= a.cfg.HoldUpdates {
		prev := a.reported
		a.reported = a.pending
		a.pending = nil
		a.pendingCount = 0
		a.changes++
		a.met.TopologyChanges.Inc()
		for p := range a.reported {
			if !prev[p] {
				a.emitDeltaLocked(Delta{Kind: DeltaEdgeUp, Pair: p, Rate: a.rates[p]})
			}
		}
		for p := range prev {
			if !a.reported[p] {
				a.emitDeltaLocked(Delta{Kind: DeltaEdgeDown, Pair: p})
			}
		}
	}
}

// Rates returns a copy of the smoothed global traffic matrix (bytes/sec).
// Once the table has filled this is the retained heavy-edge set — at most
// maxPairs entries; the light pairs live only in the sketch.
func (a *Aggregator) Rates() map[Pair]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Pair]float64, len(a.rates))
	for p, r := range a.rates {
		out[p] = r
	}
	return out
}

// Topology returns the damped, pruned application topology.
func (a *Aggregator) Topology() map[Pair]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[Pair]bool, len(a.reported))
	for p := range a.reported {
		out[p] = true
	}
	return out
}

// Changes returns how many topology changes have been reported — the
// quantity damping keeps small under bursty traffic.
func (a *Aggregator) Changes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.changes
}

// Updates returns how many local matrices have been fused.
func (a *Aggregator) Updates() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates
}

// VMs lists every MAC appearing in the smoothed matrix, sorted by byte
// value (identical to string order, without the two formatting allocations
// per comparison), giving a stable index order for matrix renderings.
func (a *Aggregator) VMs() []ethernet.MAC {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := make(map[ethernet.MAC]bool)
	for p := range a.rates {
		set[p.Src] = true
		set[p.Dst] = true
	}
	out := make([]ethernet.MAC, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// Matrix renders the smoothed rates as a dense matrix in the given MAC
// order, normalized so the largest entry is 1 (all-zero stays zero).
func (a *Aggregator) Matrix(order []ethernet.MAC) [][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(order)
	idx := make(map[ethernet.MAC]int, n)
	for i, m := range order {
		idx[m] = i
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	max := 0.0
	for p, r := range a.rates {
		si, ok1 := idx[p.Src]
		di, ok2 := idx[p.Dst]
		if ok1 && ok2 {
			out[si][di] = r
			if r > max {
				max = r
			}
		}
	}
	if max > 0 {
		for i := range out {
			for j := range out[i] {
				out[i][j] /= max
			}
		}
	}
	return out
}
