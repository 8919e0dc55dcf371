package estimator

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The SIC split's unit tests: verdict windows with known separations.

func obsAt(at int64, isr float64, congested bool) Observation {
	return Observation{At: at, RateMbps: isr, Congested: congested, TrainLen: 10, MinRTT: 1000000}
}

func TestSICEmpty(t *testing.T) {
	e := NewSIC(Config{})
	if _, ok := e.Estimate(0); ok {
		t.Fatal("empty estimator returned an estimate")
	}
}

func TestSICAllUncongested(t *testing.T) {
	e := NewSIC(Config{})
	for i, isr := range []float64{10, 30, 50} {
		e.Observe(obsAt(int64(i), isr, false))
	}
	est, ok := e.Estimate(0)
	if !ok || est.Kind != LowerBound || est.Mbps != 50 {
		t.Fatalf("est = %+v ok=%v, want lower-bound 50", est, ok)
	}
}

func TestSICAllCongested(t *testing.T) {
	e := NewSIC(Config{})
	for i, isr := range []float64{80, 100, 120} {
		e.Observe(obsAt(int64(i), isr, true))
	}
	est, ok := e.Estimate(0)
	if !ok || est.Kind != UpperBound || est.Mbps != 80 {
		t.Fatalf("est = %+v ok=%v, want upper-bound 80", est, ok)
	}
}

func TestSICPerfectSeparation(t *testing.T) {
	e := NewSIC(Config{})
	at := int64(0)
	for _, isr := range []float64{10, 20, 40, 55} {
		at++
		e.Observe(obsAt(at, isr, false))
	}
	for _, isr := range []float64{65, 80, 100} {
		at++
		e.Observe(obsAt(at, isr, true))
	}
	est, _ := e.Estimate(0)
	if est.Kind != Exact {
		t.Fatalf("kind = %v", est.Kind)
	}
	if est.Mbps != 60 {
		t.Fatalf("estimate = %v, want 60 (midpoint of 55 and 65)", est.Mbps)
	}
	if est.Quality != 1 {
		t.Fatalf("quality = %v, want 1", est.Quality)
	}
	if est.Count != 7 {
		t.Fatalf("count = %v", est.Count)
	}
}

func TestSICNoisyOverlap(t *testing.T) {
	e := NewSIC(Config{})
	at := int64(0)
	add := func(isr float64, c bool) { at++; e.Observe(obsAt(at, isr, c)) }
	// Mostly clean split at 60, with one outlier on each side.
	for _, isr := range []float64{20, 30, 40, 50, 75} {
		add(isr, false)
	}
	for _, isr := range []float64{45, 70, 80, 90, 100} {
		add(isr, true)
	}
	est, _ := e.Estimate(0)
	if est.Quality >= 1 || est.Quality < 0.7 {
		t.Fatalf("quality = %v, want in [0.7,1)", est.Quality)
	}
	if est.Mbps < 45 || est.Mbps > 75 {
		t.Fatalf("estimate = %v, want near 60", est.Mbps)
	}
}

func TestSICWindowByCount(t *testing.T) {
	e := NewSIC(Config{Window: 4})
	for i := 0; i < 10; i++ {
		e.Observe(obsAt(int64(i), float64(10+i), i%2 == 0))
	}
	if len(e.win) != 4 {
		t.Fatalf("Len = %d, want 4", len(e.win))
	}
	for _, o := range e.win {
		if o.at < 6 {
			t.Fatalf("old observation retained: %+v", o)
		}
	}
}

func TestSICWindowByAge(t *testing.T) {
	e := NewSIC(Config{MaxAge: 1000})
	e.Observe(obsAt(0, 10, false))
	e.Observe(obsAt(500, 20, false))
	e.Observe(obsAt(2000, 30, false)) // evicts the first two (older than 1000)
	if len(e.win) != 1 {
		t.Fatalf("Len = %d, want 1 (age eviction)", len(e.win))
	}
	// Old estimates fade: only the survivors matter.
	est, _ := e.Estimate(0)
	if est.Mbps != 30 {
		t.Fatalf("estimate = %v", est.Mbps)
	}
}

func TestSICTracksStep(t *testing.T) {
	// Available bandwidth steps from 90 down to 30: after the window turns
	// over, the estimate must follow.
	e := NewSIC(Config{Window: 16})
	at := int64(0)
	for i := 0; i < 16; i++ {
		at++
		e.Observe(obsAt(at, 85, false)) // plenty of headroom at 85
	}
	est, _ := e.Estimate(0)
	if est.Mbps < 85 {
		t.Fatalf("initial estimate = %v", est.Mbps)
	}
	for i := 0; i < 8; i++ {
		at++
		e.Observe(obsAt(at, 25, false))
		at++
		e.Observe(obsAt(at, 40, true)) // now 40 is already congested
	}
	est, _ = e.Estimate(0)
	if est.Mbps < 25 || est.Mbps > 40 {
		t.Fatalf("post-step estimate = %v, want in (25,40)", est.Mbps)
	}
}

// TestEstimatorBoundsProperty: the estimate always lies within the window's
// ISR range, whatever the observation mix.
func TestSICBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewSIC(Config{})
		n := 1 + rng.Intn(40)
		min, max := 1e18, -1.0
		for i := 0; i < n; i++ {
			isr := 1 + rng.Float64()*999
			if isr < min {
				min = isr
			}
			if isr > max {
				max = isr
			}
			e.Observe(obsAt(int64(i), isr, rng.Float64() < 0.5))
		}
		est, ok := e.Estimate(0)
		if !ok {
			return false
		}
		return est.Mbps >= min-1e-9 && est.Mbps <= max+1e-9 &&
			est.Quality >= 0 && est.Quality <= 1 && est.Count == len(e.win)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundString(t *testing.T) {
	if Exact.String() != "exact" ||
		LowerBound.String() != "lower-bound" ||
		UpperBound.String() != "upper-bound" {
		t.Fatal("Bound.String broken")
	}
}
