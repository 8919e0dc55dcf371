package estimator

import (
	"math"
	"testing"
)

// Golden-trace tests: each estimator against synthetic traces with known
// utilization, asserting the tighter bounds its theory promises (the
// conformance suite only asserts the loose shared bound).

func TestSICGoldenVerdictScan(t *testing.T) {
	// Verdict-only feed (no per-packet detail): SIC needs nothing more.
	path := newSynthPath(60, 100, 3)
	e := NewSIC(Config{})
	for round := 0; round < 3; round++ {
		for _, r := range []float64{20, 40, 55, 65, 80, 95} {
			e.Observe(path.train(r, 20).verdictOnly())
		}
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate")
	}
	// Truth 60 sits between the straddling rates 55 and 65.
	if est.Lo != 55 || est.Hi != 65 {
		t.Fatalf("bracket [%v, %v], want [55, 65]", est.Lo, est.Hi)
	}
	if math.Abs(est.Mbps-60) > 5 {
		t.Fatalf("estimate %.1f, want 60 +- 5", est.Mbps)
	}
	if est.Quality < 0.9 {
		t.Fatalf("clean split quality %.2f, want >= 0.9", est.Quality)
	}
}

func TestMinPlusGoldenRegression(t *testing.T) {
	// Noise-free fluid path: the slope regression must recover the exact
	// available bandwidth from congested trains alone — rates 70/80/90
	// never straddle the truth, where SIC could only report "below 70".
	path := newSynthPath(60, 100, 4)
	path.noiseNs = 0
	e := NewMinPlus(Config{})
	for _, r := range []float64{70, 80, 90, 70, 80, 90} {
		e.Observe(path.train(r, 20))
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate")
	}
	if relErr := math.Abs(est.Mbps-60) / 60; relErr > 0.05 {
		t.Fatalf("estimate %.2f, want 60 within 5%% (congested-only regression)", est.Mbps)
	}

	// With noise and a straddling scan it stays within 15%.
	path2 := newSynthPath(60, 100, 5)
	e2 := NewMinPlus(Config{})
	for round := 0; round < 4; round++ {
		for _, r := range []float64{30, 50, 70, 85, 95} {
			e2.Observe(path2.train(r, 20))
		}
	}
	est2, ok := e2.Estimate(path2.now)
	if !ok {
		t.Fatal("no estimate (noisy)")
	}
	if relErr := math.Abs(est2.Mbps-60) / 60; relErr > 0.15 {
		t.Fatalf("noisy estimate %.2f, want 60 within 15%%", est2.Mbps)
	}
}

func TestMinPlusVerdictOnlyFallsBackToBracket(t *testing.T) {
	path := newSynthPath(60, 100, 6)
	e := NewMinPlus(Config{})
	for _, r := range []float64{40, 50, 70, 80} {
		e.Observe(path.train(r, 20).verdictOnly())
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Lo != 50 || est.Hi != 70 {
		t.Fatalf("bracket [%v, %v], want [50, 70]", est.Lo, est.Hi)
	}
	if est.Mbps != 60 {
		t.Fatalf("fallback midpoint %v, want 60", est.Mbps)
	}
}

// driveSelfLoading runs the probe loop against an oracle path until the
// prober converges or maxProbes is spent, returning the probe count used.
func driveSelfLoading(e *SelfLoading, path *synthPath, maxProbes int) int {
	for i := 0; i < maxProbes; i++ {
		pr, ok := e.NextProbe(path.now)
		if !ok {
			return i
		}
		e.Observe(path.train(pr.RateMbps, pr.Packets))
		if e.converged() {
			return i + 1
		}
	}
	return maxProbes
}

func TestSelfLoadingGoldenBinarySearch(t *testing.T) {
	path := newSynthPath(37, 100, 8)
	e := NewSelfLoading(Config{MinRateMbps: 1, MaxRateMbps: 1000})
	used := driveSelfLoading(e, path, 40)
	if used >= 40 {
		t.Fatalf("did not converge in 40 probes (bracket [%v, %v])", e.lo, e.hi)
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate")
	}
	if relErr := math.Abs(est.Mbps-37) / 37; relErr > 0.10 {
		t.Fatalf("estimate %.2f after %d probes, want 37 within 10%%", est.Mbps, used)
	}
	// Binary search over [1, 1000] at 10% resolution: ~15 probes suffice.
	if used > 20 {
		t.Fatalf("convergence took %d probes, want <= 20", used)
	}
}

func TestSelfLoadingReopensOnPathChange(t *testing.T) {
	path := newSynthPath(37, 100, 9)
	e := NewSelfLoading(Config{MinRateMbps: 1, MaxRateMbps: 1000})
	driveSelfLoading(e, path, 40)

	// Path speeds up: watch-mode edge probes above hi now pass clean, the
	// bracket must reopen upward and reconverge near the new truth.
	path.availMbps = 80
	for i := 0; i < 40 && !func() bool {
		pr, _ := e.NextProbe(path.now)
		e.Observe(path.train(pr.RateMbps, pr.Packets))
		est, _ := e.Estimate(path.now)
		return math.Abs(est.Mbps-80)/80 <= 0.15
	}(); i++ {
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate after speed-up")
	}
	if relErr := math.Abs(est.Mbps-80) / 80; relErr > 0.15 {
		t.Fatalf("estimate %.2f after speed-up, want 80 within 15%%", est.Mbps)
	}

	// Path slows down: congestion below lo must drop the floor.
	path.availMbps = 12
	for i := 0; i < 60; i++ {
		pr, _ := e.NextProbe(path.now)
		e.Observe(path.train(pr.RateMbps, pr.Packets))
	}
	est, ok = e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate after slow-down")
	}
	if relErr := math.Abs(est.Mbps-12) / 12; relErr > 0.25 {
		t.Fatalf("estimate %.2f after slow-down, want 12 within 25%%", est.Mbps)
	}
}

func TestSelfLoadingUsesPassiveObservations(t *testing.T) {
	// Free verdicts from app traffic tighten the bracket without a single
	// probe being sent.
	path := newSynthPath(50, 100, 10)
	e := NewSelfLoading(Config{MinRateMbps: 1, MaxRateMbps: 1000})
	for round := 0; round < 2; round++ {
		for _, r := range []float64{45, 55} {
			e.Observe(path.train(r, 20))
		}
	}
	est, ok := e.Estimate(path.now)
	if !ok {
		t.Fatal("no estimate from passive feed")
	}
	if math.Abs(est.Mbps-50) > 5 {
		t.Fatalf("passive-fed estimate %.1f, want 50 +- 5", est.Mbps)
	}
}
