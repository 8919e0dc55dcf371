package estimator

import (
	"math"
	"testing"
)

// TestConformance runs the shared interface contract over every
// registered estimator: identity, empty-state behaviour, bounded error on
// a known synthetic path, estimate invariants, staleness bookkeeping, and
// Reset semantics. New estimators get this suite for free by registering.
func TestConformance(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("registry has %v, want at least sic/minplus/selfload", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := Config{Window: 64, MaxAge: 600_000_000_000, MinRateMbps: 1, MaxRateMbps: 200}
			e := MustNew(name, cfg)
			if e.Name() != name {
				t.Fatalf("Name() = %q, want %q", e.Name(), name)
			}
			if k := e.Kind(); k != Passive && k != Active {
				t.Fatalf("Kind() = %v", k)
			}
			if _, ok := e.Estimate(0); ok {
				t.Fatal("empty estimator returned an estimate")
			}
			if e.Kind() == Active {
				p, isProber := e.(Prober)
				if !isProber {
					t.Fatal("active estimator does not implement Prober")
				}
				pr, ok := p.NextProbe(0)
				if !ok {
					t.Fatal("cold active estimator declined to probe")
				}
				if pr.RateMbps < cfg.MinRateMbps || pr.RateMbps > cfg.MaxRateMbps ||
					pr.Packets <= 0 || pr.SizeBytes <= 0 {
					t.Fatalf("invalid probe %+v", pr)
				}
			}

			// Known path: 50 Mbps available on a 100 Mbps bottleneck. Feed a
			// deterministic rate scan straddling the truth.
			const truth = 50.0
			path := newSynthPath(truth, 100, 7)
			rates := []float64{10, 30, 45, 55, 70, 90, 20, 60, 40, 80}
			var lastAt int64
			for round := 0; round < 4; round++ {
				for _, r := range rates {
					o := path.train(r, 20)
					lastAt = o.At
					e.Observe(o)
				}
			}
			est, ok := e.Estimate(lastAt)
			if !ok {
				t.Fatal("no estimate after 40 observations")
			}
			if est.Mbps <= 0 || est.Mbps > cfg.MaxRateMbps {
				t.Fatalf("estimate %v out of range", est.Mbps)
			}
			if relErr := math.Abs(est.Mbps-truth) / truth; relErr > 0.35 {
				t.Fatalf("relative error %.2f (est %.1f, truth %.1f)", relErr, est.Mbps, truth)
			}
			if est.Lo > est.Hi {
				t.Fatalf("Lo %v > Hi %v", est.Lo, est.Hi)
			}
			if est.Quality < 0 || est.Quality > 1 {
				t.Fatalf("quality %v outside [0,1]", est.Quality)
			}
			if est.Count <= 0 {
				t.Fatalf("count = %d", est.Count)
			}
			if est.At != lastAt {
				t.Fatalf("At = %d, want newest observation %d", est.At, lastAt)
			}
			if !est.Stale(lastAt+3_000_000_000, 2_000_000_000) {
				t.Fatal("3s-old estimate not stale at 2s limit")
			}

			// Ambiguous observations must be absorbed without panicking and
			// without poisoning the estimate.
			amb := path.train(55, 20)
			amb.Ambiguous = true
			e.Observe(amb)
			if est2, ok := e.Estimate(lastAt); ok {
				if relErr := math.Abs(est2.Mbps-truth) / truth; relErr > 0.40 {
					t.Fatalf("ambiguous observation degraded estimate to %.1f", est2.Mbps)
				}
			}

			e.Reset()
			if _, ok := e.Estimate(lastAt); ok {
				t.Fatal("estimate survived Reset")
			}
		})
	}
}

// TestRegistryUnknown exercises the registry's error path.
func TestRegistryUnknown(t *testing.T) {
	if _, err := New("no-such-estimator", Config{}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

// TestSetRoutesPerRemote checks the per-path fan-out wrapper.
func TestSetRoutesPerRemote(t *testing.T) {
	set, err := NewSet("sic", Config{})
	if err != nil {
		t.Fatal(err)
	}
	pa := newSynthPath(30, 100, 1)
	pb := newSynthPath(80, 100, 2)
	for i := 0; i < 12; i++ {
		r := 10 + float64(i%6)*15 // 10..85
		set.Observe("a", pa.train(r, 20).verdictOnly())
		set.Observe("b", pb.train(r, 20).verdictOnly())
	}
	ea, ok := set.Estimate("a", pa.now)
	if !ok {
		t.Fatal("no estimate for a")
	}
	eb, ok := set.Estimate("b", pb.now)
	if !ok {
		t.Fatal("no estimate for b")
	}
	if !(ea.Mbps < eb.Mbps) {
		t.Fatalf("paths not separated: a=%.1f b=%.1f", ea.Mbps, eb.Mbps)
	}
	if _, ok := set.Estimate("c", 0); ok {
		t.Fatal("estimate for unknown remote")
	}
	if _, ok := set.NextProbe("a", 0); ok {
		t.Fatal("passive set offered a probe")
	}
	active, err := NewSet("selfload", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := active.NextProbe("fresh-path", 0); !ok {
		t.Fatal("active set declined to probe a fresh path")
	}
}
