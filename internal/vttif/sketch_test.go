package vttif

import (
	"math"
	"math/rand"
	"testing"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
)

func randPair(rng *rand.Rand, n int) Pair {
	s := rng.Intn(n)
	d := rng.Intn(n - 1)
	if d >= s {
		d++
	}
	return Pair{ethernet.VMMAC(s), ethernet.VMMAC(d)}
}

// TestCountMinOverestimateOnly is the property test for the sketch core:
// under seeded random insert streams — with and without aging — the
// estimate for every pair must never fall below its true (equally aged)
// mass.
func TestCountMinOverestimateOnly(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 20260808} {
		rng := rand.New(rand.NewSource(seed))
		c := newCountMin(256, 4)
		truth := make(map[Pair]float64)
		for i := 0; i < 20000; i++ {
			p := randPair(rng, 300) // 300 VMs ≈ 90k possible pairs ≫ 256 cells
			v := rng.Float64() * 1000
			c.add(p, v)
			truth[p] += v
			if i%500 == 0 {
				gamma := 0.7 + 0.3*rng.Float64()
				c.scale(gamma)
				for q := range truth {
					truth[q] *= gamma
				}
			}
		}
		for p, want := range truth {
			if got := c.estimate(p); got < want-1e-6 {
				t.Fatalf("seed %d: estimate(%v) = %v underestimates true mass %v", seed, p, got, want)
			}
		}
	}
}

// TestTopKRetainsHeavyEdges asserts the space-saving guarantee end to end:
// across seeded random workloads, every edge whose smoothed rate is above
// the prune threshold must be retained exactly and appear in the inferred
// topology, despite a large churning population of light pairs.
func TestTopKRetainsHeavyEdges(t *testing.T) {
	for _, seed := range []int64{1, 9, 77} {
		rng := rand.New(rand.NewSource(seed))
		a := NewAggregator(Config{Alpha: 0.5, PruneFraction: 0.1, HoldUpdates: 1})
		a.maxPairs = 64
		// 16 heavy edges at ~1e6 B/s, plus 2000 random light pairs per
		// round drawn from a huge population at ≤1e3 B/s.
		heavy := make(map[Pair]uint64)
		for i := 0; i < 16; i++ {
			p := Pair{ethernet.VMMAC(i), ethernet.VMMAC(i + 100)}
			heavy[p] = uint64(900000 + rng.Intn(200000))
		}
		for round := 0; round < 12; round++ {
			local := make(map[Pair]uint64, len(heavy)+2000)
			for p, b := range heavy {
				local[p] = b
			}
			for i := 0; i < 2000; i++ {
				p := randPair(rng, 1000)
				if _, isHeavy := heavy[p]; isHeavy {
					continue
				}
				local[p] += uint64(rng.Intn(1000))
			}
			if err := a.Update("d1", local, 1); err != nil {
				t.Fatal(err)
			}
		}
		rates := a.Rates()
		topo := a.Topology()
		for p, b := range heavy {
			r, ok := rates[p]
			if !ok {
				t.Fatalf("seed %d: heavy edge %v not retained", seed, p)
			}
			// Retained heavy rates must be within a factor-two band of
			// the true steady rate (EWMA converged, admission overshoot
			// bounded by the evicted light minimum).
			if r < float64(b)*0.5 || r > float64(b)*2 {
				t.Fatalf("seed %d: heavy edge %v rate %v vs true %d", seed, p, r, b)
			}
			if !topo[p] {
				t.Fatalf("seed %d: heavy edge %v missing from topology", seed, p)
			}
		}
		if n := len(rates); n > 64 {
			t.Fatalf("seed %d: retained %d pairs > k", seed, n)
		}
	}
}

// TestSketchedBoundedState feeds far more distinct pairs than the table
// retains and asserts the exact state stays at the pair cap: the memory
// contract past the cap.
func TestSketchedBoundedState(t *testing.T) {
	a := NewAggregator(Config{})
	a.maxPairs = 32
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		local := make(map[Pair]uint64, 5000)
		for i := 0; i < 5000; i++ {
			local[randPair(rng, 500)] = uint64(1 + rng.Intn(100000))
		}
		if err := a.Update("d1", local, 1); err != nil {
			t.Fatal(err)
		}
		if n := len(a.rates); n > 32 {
			t.Fatalf("round %d: table grew to %d entries", round, n)
		}
		if n := len(a.emitted); n > 32 {
			t.Fatalf("round %d: emitted map grew to %d entries", round, n)
		}
		checkRateHeap(t, a)
	}
	if n := len(a.Rates()); n > 32 {
		t.Fatalf("Rates() returned %d entries past the cap", n)
	}
}

// TestSketchedDecayOnOmission mirrors TestAggregatorDecayOnOmission for
// the retained set after the sketch has started.
func TestSketchedDecayOnOmission(t *testing.T) {
	a := NewAggregator(Config{Alpha: 0.5})
	a.maxPairs = 1
	p, light := Pair{m1, m2}, Pair{m3, m1}
	a.Update("d1", map[Pair]uint64{p: 1000, light: 1}, 1)
	if a.cms == nil {
		t.Fatal("sketch never started")
	}
	before := a.Rates()[p]
	a.Update("d1", map[Pair]uint64{}, 1)
	after := a.Rates()[p]
	if after >= before {
		t.Fatalf("no decay: %v -> %v", before, after)
	}
	other := Pair{m2, m3}
	a.Update("d2", map[Pair]uint64{other: 400}, 1)
	if got := a.Rates()[p]; got != after {
		t.Fatalf("foreign update decayed pair: %v -> %v", after, got)
	}
	for i := 0; i < 40; i++ {
		a.Update("d1", map[Pair]uint64{}, 1)
		checkRateHeap(t, a)
	}
	if _, ok := a.Rates()[p]; ok {
		t.Fatal("pair never deleted after sustained omission")
	}
}

// checkRateHeap asserts that once the sketch is on, the admission heap
// is in heap order, bounded by twice the cap, holds a live entry for
// every retained pair, and yields the true lightest retained rate.
func checkRateHeap(t *testing.T, a *Aggregator) {
	t.Helper()
	if a.cms == nil || len(a.rates) == 0 {
		return
	}
	h := a.byRate
	if len(h) > 2*a.maxPairs {
		t.Fatalf("heap holds %d entries for a cap of %d", len(h), a.maxPairs)
	}
	live := make(map[Pair]bool)
	for i, it := range h {
		if i > 0 && h[(i-1)/2].r > it.r {
			t.Fatalf("heap order broken at slot %d", i)
		}
		if r, ok := a.rates[it.p]; ok && r == it.r {
			live[it.p] = true
		}
	}
	if len(live) != len(a.rates) {
		t.Fatalf("%d of %d retained pairs have a live heap entry", len(live), len(a.rates))
	}
	want := math.Inf(1)
	for _, r := range a.rates {
		want = min(want, r)
	}
	if _, got := a.byRate.min(a.rates); got != want {
		t.Fatalf("heap minimum %v, table minimum %v", got, want)
	}
}

// TestRefreshSkippedWhenClean asserts the dirty-check satellite: a steady
// workload stops rebuilding the topology once converged, yet threshold
// crossings still propagate.
func TestRefreshSkippedWhenClean(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAggregator(Config{Alpha: 1, PruneFraction: 0.1, HoldUpdates: 1})
	a.SetMetrics(NewAggregatorMetrics(reg), reg)
	steady := map[Pair]uint64{{m1, m2}: 10000, {m2, m1}: 5000}
	for i := 0; i < 10; i++ {
		if err := a.Update("d1", steady, 1); err != nil {
			t.Fatal(err)
		}
	}
	skipped := a.met.RefreshesSkipped.Value()
	if skipped == 0 {
		t.Fatal("steady workload never skipped a topology refresh")
	}
	// A rate collapsing below the prune threshold must still be noticed.
	a.Update("d1", map[Pair]uint64{{m1, m2}: 10000, {m2, m1}: 10}, 1)
	if topo := a.Topology(); topo[Pair{m2, m1}] {
		t.Fatalf("threshold crossing missed by dirty check: %v", topo)
	}
	// And a brand-new dominant pair re-prunes the rest.
	a.Update("d1", map[Pair]uint64{{m1, m2}: 10000, {m1, m3}: 1000000}, 1)
	topo := a.Topology()
	if !topo[Pair{m1, m3}] || topo[Pair{m1, m2}] {
		t.Fatalf("new max not reflected: %v", topo)
	}
}
