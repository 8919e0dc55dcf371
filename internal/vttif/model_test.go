package vttif

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
)

// exactUpdate is the reference the single table must reproduce below its
// cap: the plain exact EWMA with no cap and no sketch. Every reported pair
// moves by alpha toward its new rate; every pair the reporter owns but
// omitted decays by (1−alpha) and is pruned below 1 B/s. It runs on a's
// own table and shares its topology and delta bookkeeping.
func exactUpdate(a *Aggregator, from string, local map[Pair]uint64, intervalSec float64) {
	alpha := a.cfg.Alpha
	for p, b := range local {
		old := a.rates[p]
		next := alpha*(float64(b)/intervalSec) + (1-alpha)*old
		a.rates[p], a.owner[p] = next, from
		a.noteRateLocked(p, old, next)
	}
	for p, o := range a.owner {
		if _, ok := local[p]; o != from || ok {
			continue
		}
		old := a.rates[p]
		if next := old * (1 - alpha); next < 1 {
			delete(a.rates, p)
			delete(a.owner, p)
			a.noteRateLocked(p, old, 0)
		} else {
			a.rates[p] = next
			a.noteRateLocked(p, old, next)
		}
	}
	a.updates++
	a.refreshTopologyLocked()
}

// reportStream drives three round-robin reporters over a pair population
// that grows by one pair every third report. Each report omits about 1/7
// of its daemon's pairs, byte counts are log-uniform over 1 B–160 kB (so
// light pairs decay out), and now and then a pair moves to another daemon.
type reportStream struct {
	rng    *rand.Rand
	owner  map[Pair]int
	pairs  []Pair
	update int
}

func newReportStream(seed int64, initial int) *reportStream {
	s := &reportStream{rng: rand.New(rand.NewSource(seed)), owner: make(map[Pair]int)}
	for len(s.pairs) < initial {
		s.grow()
	}
	return s
}

func (s *reportStream) grow() {
	for {
		p := randPair(s.rng, 40)
		if _, dup := s.owner[p]; !dup {
			s.owner[p] = s.rng.Intn(3)
			s.pairs = append(s.pairs, p)
			return
		}
	}
}

func (s *reportStream) next() (string, map[Pair]uint64, float64) {
	d := s.update % 3
	s.update++
	if s.update%3 == 0 {
		s.grow()
	}
	if s.rng.Intn(3) == 0 {
		s.owner[s.pairs[s.rng.Intn(len(s.pairs))]] = s.rng.Intn(3)
	}
	local := make(map[Pair]uint64)
	for _, p := range s.pairs {
		if s.owner[p] == d && s.rng.Intn(7) != 0 {
			local[p] = uint64(math.Exp(s.rng.Float64() * 12))
		}
	}
	return fmt.Sprintf("d%d", d), local, 0.5 + s.rng.Float64()
}

func deltaCounts(a *Aggregator) map[Delta]int {
	ds, reset := a.Deltas()
	out := make(map[Delta]int)
	if reset {
		out[Delta{Kind: -1}]++
	}
	for _, d := range ds {
		out[d]++
	}
	return out
}

// TestAggregatorMatchesExactModel is the differential test of the single
// update path below the cap: after every report its rates must be
// bit-identical to the exact reference, and its topology, change count
// and drained deltas equal.
func TestAggregatorMatchesExactModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := Config{HoldUpdates: 2}
		a, ref := NewAggregator(cfg), NewAggregator(cfg)
		s := newReportStream(seed, 60)
		for i := 0; i < 300; i++ {
			from, local, interval := s.next()
			if err := a.Update(from, local, interval); err != nil {
				t.Fatal(err)
			}
			exactUpdate(ref, from, local, interval)
			if got, want := a.Rates(), ref.Rates(); !maps.Equal(got, want) {
				t.Fatalf("seed %d update %d: rates diverge from the exact model:\n got %v\nwant %v", seed, i, got, want)
			}
			if got, want := a.Topology(), ref.Topology(); !maps.Equal(got, want) {
				t.Fatalf("seed %d update %d: topology %v, want %v", seed, i, got, want)
			}
			if a.Changes() != ref.Changes() {
				t.Fatalf("seed %d update %d: changes %d, want %d", seed, i, a.Changes(), ref.Changes())
			}
			if got, want := deltaCounts(a), deltaCounts(ref); !maps.Equal(got, want) {
				t.Fatalf("seed %d update %d: deltas %v, want %v", seed, i, got, want)
			}
		}
		if a.cms != nil || len(a.rates) == 0 {
			t.Fatalf("seed %d: %d pairs, sketch started %v — the test left the exact regime", seed, len(a.rates), a.cms != nil)
		}
	}
}

// TestSketchNeverUnderestimatesModel runs past a small cap: from the
// report that starts the sketch on, alpha times its estimate must stay at
// or above the exact model's smoothed rate for every pair the model holds
// — retained, evicted, or never admitted alike. The sketch ages by
// gamma = (1−alpha)^(1/3) at every report, the model only at its owner's,
// so the model rate is aged by gamma^k for the k reports since its owner's
// last one. The bound holds only if the sketch is seeded with the table's
// mass when it starts.
func TestSketchNeverUnderestimatesModel(t *testing.T) {
	gamma := math.Pow(1-Config{}.withDefaults().Alpha, 1.0/3)
	for seed := int64(1); seed <= 10; seed++ {
		a, ref := NewAggregator(Config{}), NewAggregator(Config{})
		a.maxPairs = 32
		s := newReportStream(seed, 20)
		for i := 0; i < 240; i++ {
			from, local, interval := s.next()
			if err := a.Update(from, local, interval); err != nil {
				t.Fatal(err)
			}
			exactUpdate(ref, from, local, interval)
			if a.cms == nil {
				continue
			}
			checkRateHeap(t, a)
			for p, r := range ref.rates {
				// Owner dN reports at updates N, N+3, ...
				k := (i - int(ref.owner[p][1]-'0') + 3) % 3
				want := r * math.Pow(gamma, float64(k))
				if got := a.cfg.Alpha * a.cms.estimate(p); got < want*(1-1e-9) {
					t.Fatalf("seed %d update %d: alpha·estimate(%v) = %v below the model's aged rate %v", seed, i, p, got, want)
				}
			}
		}
		if a.cms == nil || len(ref.rates) <= 32 || len(a.rates) > 32 {
			t.Fatalf("seed %d: model %d pairs, table %d, sketch started %v — the run never crossed the cap", seed, len(ref.rates), len(a.rates), a.cms != nil)
		}
	}
}
