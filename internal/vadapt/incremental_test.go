package vadapt

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"freemeasure/internal/obs"
	"freemeasure/internal/topology"
)

// incrementalProblem builds a 16-host complete graph with deterministic
// heterogeneous capacities and a seeded demand set over 10 VMs.
func incrementalProblem(seed int64) *Problem {
	hosts := topology.Complete(16, func(a, b topology.NodeID) (float64, float64) {
		return 50 + float64((int(a)*31+int(b)*17)%100), 1
	})
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]VMID]bool{}
	var demands []Demand
	for len(demands) < 14 {
		s := VMID(rng.Intn(10))
		d := VMID(rng.Intn(10))
		if s == d || seen[[2]VMID{s, d}] {
			continue
		}
		seen[[2]VMID{s, d}] = true
		demands = append(demands, Demand{Src: s, Dst: d, Rate: 1 + 9*rng.Float64()})
	}
	return &Problem{Hosts: hosts, NumVMs: 10, Demands: demands}
}

func newIncremental(m *Metrics) *Incremental {
	return &Incremental{
		SA:      SAConfig{Iterations: 4000, Seed: 11},
		Warm:    WarmConfig{FullEvery: -1},
		Metrics: m,
	}
}

func TestIncrementalFirstSolveIsFull(t *testing.T) {
	inc := newIncremental(nil)
	p := incrementalProblem(1)
	cfg, stats := inc.Solve(p, nil, nil, 0)
	if stats.Mode != "full" {
		t.Fatalf("first solve mode = %q (%s)", stats.Mode, stats.Reason)
	}
	if err := cfg.Valid(p); err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 4000 {
		t.Fatalf("full solve iterations = %d", stats.Iterations)
	}
}

// TestIncrementalWarmWithinFivePercent is the acceptance bar: on a
// small-delta scenario the warm-started solve must land within 5% of a
// from-scratch re-solve's objective while spending far fewer iterations.
func TestIncrementalWarmWithinFivePercent(t *testing.T) {
	obj := ResidualBW{}
	for _, seed := range []int64{1, 5, 9} {
		p1 := incrementalProblem(seed)
		inc := newIncremental(nil)
		prev, _ := inc.Solve(p1, nil, nil, 1)

		// Small delta: one demand grows 10%.
		p2 := incrementalProblem(seed)
		p2.Demands[0].Rate *= 1.1
		warmCfg, warmStats := inc.Solve(p2, prev, []int{0}, 0.01)
		if warmStats.Mode != "warm" {
			t.Fatalf("seed %d: mode = %q (%s)", seed, warmStats.Mode, warmStats.Reason)
		}
		if err := warmCfg.Valid(p2); err != nil {
			t.Fatalf("seed %d: warm config invalid: %v", seed, err)
		}

		fullCfg, fullStats := newIncremental(nil).Solve(p2, nil, nil, 1)
		warmScore := obj.Evaluate(p2, warmCfg).Score
		fullScore := obj.Evaluate(p2, fullCfg).Score
		if warmScore < fullScore-0.05*math.Abs(fullScore) {
			t.Fatalf("seed %d: warm score %v more than 5%% below full %v", seed, warmScore, fullScore)
		}
		if warmStats.Iterations >= fullStats.Iterations {
			t.Fatalf("seed %d: warm spent %d iterations vs full %d", seed,
				warmStats.Iterations, fullStats.Iterations)
		}
	}
}

func TestIncrementalIterationMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	inc := newIncremental(m)
	p := incrementalProblem(3)
	prev, _ := inc.Solve(p, nil, nil, 1)
	fullIters := m.SAIterations.Value()
	inc.Solve(p, prev, []int{1}, 0.02)
	warmIters := m.SAIterations.Value() - fullIters
	if warmIters == 0 || warmIters >= fullIters {
		t.Fatalf("warm iterations %d vs full %d: warm must be measurably less work", warmIters, fullIters)
	}
	if m.WarmSolves.Value() != 1 || m.FullSolves.Value() != 1 {
		t.Fatalf("solve counters warm=%d full=%d", m.WarmSolves.Value(), m.FullSolves.Value())
	}
}

func TestIncrementalRegimeChangeForcesFull(t *testing.T) {
	inc := newIncremental(nil)
	p := incrementalProblem(2)
	prev, _ := inc.Solve(p, nil, nil, 1)
	_, stats := inc.Solve(p, prev, []int{0, 1, 2}, 0.8)
	if stats.Mode != "full" || stats.Reason != "regime change" {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestIncrementalPeriodicFullBackstop(t *testing.T) {
	inc := newIncremental(nil)
	inc.Warm.FullEvery = 3
	p := incrementalProblem(4)
	prev, _ := inc.Solve(p, nil, nil, 1)
	for i := 0; i < 3; i++ {
		var stats SolveStats
		prev, stats = inc.Solve(p, prev, nil, 0)
		if stats.Mode != "warm" {
			t.Fatalf("solve %d: mode %q (%s)", i, stats.Mode, stats.Reason)
		}
	}
	_, stats := inc.Solve(p, prev, nil, 0)
	if stats.Mode != "full" || stats.Reason != "periodic full re-solve" {
		t.Fatalf("backstop stats = %+v", stats)
	}
}

func TestIncrementalFullFallbacks(t *testing.T) {
	p := incrementalProblem(6)
	inc := newIncremental(nil)
	good, _ := inc.Solve(p, nil, nil, 1)

	// Shape mismatch: prior built for a different demand count.
	short := good.Clone()
	short.Paths = short.Paths[:len(short.Paths)-1]
	if _, stats := newIncremental(nil).Solve(p, short, nil, 0); stats.Mode != "full" {
		t.Fatalf("shape mismatch: %+v", stats)
	}
	// Mapping referencing a host outside the graph.
	bad := good.Clone()
	bad.Mapping[0] = topology.NodeID(99)
	if _, stats := newIncremental(nil).Solve(p, bad, nil, 0); stats.Mode != "full" {
		t.Fatalf("bad mapping: %+v", stats)
	}
}

// TestIncrementalWarmRepairsStructure hands the warm path a prior with a
// nil path and a stale path whose endpoints moved; both must be re-routed
// into a structurally valid configuration without a full solve.
func TestIncrementalWarmRepairsStructure(t *testing.T) {
	p := incrementalProblem(7)
	inc := newIncremental(nil)
	prev, _ := inc.Solve(p, nil, nil, 1)
	broken := prev.Clone()
	broken.Paths[2] = nil
	broken.Paths[3] = topology.Path{broken.Mapping[0]} // wrong endpoints
	cfg, stats := inc.Solve(p, broken, nil, 0)
	if stats.Mode != "warm" {
		t.Fatalf("mode = %q (%s)", stats.Mode, stats.Reason)
	}
	if stats.Repaired < 2 {
		t.Fatalf("repaired = %d, want >= 2", stats.Repaired)
	}
	if err := cfg.Valid(p); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if cfg.Paths[i] == nil {
			t.Fatalf("path %d still nil after repair", i)
		}
	}
}

// TestIncrementalDeterministic: identical problem, prior, and delta give
// byte-identical configurations — the seeded-determinism contract.
func TestIncrementalDeterministic(t *testing.T) {
	run := func() *Config {
		p := incrementalProblem(8)
		inc := newIncremental(nil)
		prev, _ := inc.Solve(p, nil, nil, 1)
		p.Demands[1].Rate *= 1.2
		cfg, _ := inc.Solve(p, prev, []int{1}, 0.03)
		return cfg
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic warm solve:\n%+v\nvs\n%+v", a, b)
	}
}

// TestIncrementalGreedyOnlyWarm: with SA disabled the warm path is a pure
// deterministic reroute (zero iterations).
func TestIncrementalGreedyOnlyWarm(t *testing.T) {
	p := incrementalProblem(9)
	inc := &Incremental{Warm: WarmConfig{FullEvery: -1}}
	prev, stats := inc.Solve(p, nil, nil, 1)
	if stats.Iterations != 0 {
		t.Fatalf("GH-only full solve ran %d SA iterations", stats.Iterations)
	}
	cfg, stats := inc.Solve(p, prev, []int{0}, 0.01)
	if stats.Mode != "warm" || stats.Iterations != 0 {
		t.Fatalf("GH-only warm stats = %+v", stats)
	}
	if err := cfg.Valid(p); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIncrementalFull(b *testing.B) {
	p := incrementalProblem(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inc := newIncremental(nil)
		inc.Solve(p, nil, nil, 1)
	}
}

func BenchmarkIncrementalWarm(b *testing.B) {
	p := incrementalProblem(1)
	inc := newIncremental(nil)
	prev, _ := inc.Solve(p, nil, nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Solve(p, prev, []int{0}, 0.02)
	}
}
