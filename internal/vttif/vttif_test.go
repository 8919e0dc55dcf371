package vttif

import (
	"math"
	"testing"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
)

var (
	m1 = ethernet.VMMAC(1)
	m2 = ethernet.VMMAC(2)
	m3 = ethernet.VMMAC(3)
)

func TestLocalAccumulateAndSnapshot(t *testing.T) {
	l := NewLocal()
	l.AddFrame(m1, m2, 1500)
	l.AddFrame(m1, m2, 500)
	l.AddFrame(m2, m1, 100)
	snap := l.Snapshot()
	if snap[Pair{m1, m2}] != 2000 {
		t.Fatalf("snap[1->2] = %d", snap[Pair{m1, m2}])
	}
	if snap[Pair{m2, m1}] != 100 {
		t.Fatalf("snap[2->1] = %d", snap[Pair{m2, m1}])
	}
	// Snapshot resets.
	if again := l.Snapshot(); len(again) != 0 {
		t.Fatalf("second snapshot = %v, want empty", again)
	}
}

func TestAggregatorEWMA(t *testing.T) {
	a := NewAggregator(Config{Alpha: 0.5})
	p := Pair{m1, m2}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1) // rate 1000 -> ewma 500
	if got := a.Rates()[p]; got != 500 {
		t.Fatalf("rate after 1 update = %v, want 500", got)
	}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1) // 0.5*1000 + 0.5*500 = 750
	if got := a.Rates()[p]; got != 750 {
		t.Fatalf("rate after 2 updates = %v, want 750", got)
	}
}

func TestAggregatorDecayOnOmission(t *testing.T) {
	a := NewAggregator(Config{Alpha: 0.5})
	p := Pair{m1, m2}
	a.Update("d1", map[Pair]uint64{p: 1000}, 1)
	before := a.Rates()[p]
	// d1 reports again without the pair: it decays.
	a.Update("d1", map[Pair]uint64{}, 1)
	after := a.Rates()[p]
	if after >= before {
		t.Fatalf("no decay: %v -> %v", before, after)
	}
	// A different daemon's update must not decay d1's pairs.
	other := Pair{m2, m3}
	a.Update("d2", map[Pair]uint64{other: 400}, 1)
	if got := a.Rates()[p]; got != after {
		t.Fatalf("foreign update decayed pair: %v -> %v", after, got)
	}
	// Repeated omission eventually deletes the entry.
	for i := 0; i < 40; i++ {
		a.Update("d1", map[Pair]uint64{}, 1)
	}
	if _, ok := a.Rates()[p]; ok {
		t.Fatal("pair never deleted after sustained omission")
	}
}

func TestTopologyPruning(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, PruneFraction: 0.1, HoldUpdates: 1})
	a.Update("d1", map[Pair]uint64{
		{m1, m2}: 10000,
		{m2, m1}: 5000,
		{m1, m3}: 50, // below 10% of max: pruned
	}, 1)
	topo := a.Topology()
	if !topo[Pair{m1, m2}] || !topo[Pair{m2, m1}] {
		t.Fatalf("topology missing strong edges: %v", topo)
	}
	if topo[Pair{m1, m3}] {
		t.Fatal("weak edge not pruned")
	}
}

func TestTopologyDamping(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, PruneFraction: 0.1, HoldUpdates: 3})
	stable := map[Pair]uint64{{m1, m2}: 1000}
	// First appearance must persist HoldUpdates times before being reported.
	a.Update("d1", stable, 1)
	if len(a.Topology()) != 0 {
		t.Fatal("topology reported after a single update")
	}
	a.Update("d1", stable, 1)
	a.Update("d1", stable, 1)
	if len(a.Topology()) != 1 {
		t.Fatalf("topology not reported after %d updates", 3)
	}
	if a.Changes() != 1 {
		t.Fatalf("changes = %d", a.Changes())
	}
}

func TestTopologyOscillationSuppressed(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1, PruneFraction: 0.1, HoldUpdates: 3})
	aOnly := map[Pair]uint64{{m1, m2}: 1000}
	bOnly := map[Pair]uint64{{m2, m3}: 1000}
	// Establish aOnly.
	for i := 0; i < 3; i++ {
		a.Update("d1", aOnly, 1)
	}
	base := a.Changes()
	// Rapid alternation: pending never persists long enough (note alpha=1
	// makes the smoothed matrix follow instantly, so this isolates the
	// hold-updates damping).
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			a.Update("d1", bOnly, 1)
		} else {
			a.Update("d1", aOnly, 1)
		}
	}
	if a.Changes() > base+1 {
		t.Fatalf("oscillation leaked through damping: %d changes", a.Changes()-base)
	}
}

func TestMatrixAndVMs(t *testing.T) {
	a := NewAggregator(Config{Alpha: 1})
	a.Update("d1", map[Pair]uint64{
		{m1, m2}: 1000,
		{m2, m1}: 500,
	}, 1)
	vms := a.VMs()
	if len(vms) != 2 {
		t.Fatalf("VMs = %v", vms)
	}
	mat := a.Matrix(vms)
	if mat[0][1] != 1.0 || mat[1][0] != 0.5 {
		t.Fatalf("matrix = %v", mat)
	}
	if mat[0][0] != 0 || mat[1][1] != 0 {
		t.Fatal("diagonal not zero")
	}
	// Empty aggregator: zero matrix, no NaNs.
	empty := NewAggregator(Config{})
	z := empty.Matrix(vms)
	if z[0][1] != 0 {
		t.Fatalf("empty matrix = %v", z)
	}
}

func TestUpdateValidation(t *testing.T) {
	a := NewAggregator(Config{})
	reg := obs.NewRegistry()
	a.SetMetrics(NewAggregatorMetrics(reg), reg)
	if err := a.Update("d1", nil, 0); err == nil {
		t.Fatal("expected error on zero interval")
	}
	if err := a.Update("d1", nil, -3); err == nil {
		t.Fatal("expected error on negative interval")
	}
	for _, iv := range []float64{math.NaN(), math.Inf(1)} {
		if err := a.Update("d1", nil, iv); err == nil {
			t.Fatalf("expected error on interval %v", iv)
		}
	}
	// A positive but tiny interval turns bytes into an infinite rate,
	// which would never decay below the prune threshold: the whole
	// report is rejected.
	if err := a.Update("d1", map[Pair]uint64{{m1, m2}: 1000, {m2, m1}: 1}, 1e-308); err == nil {
		t.Fatal("expected error on an interval giving an infinite rate")
	}
	if got := a.met.BadIntervals.Value(); got != 5 {
		t.Fatalf("vttif_bad_interval_reports_total = %d, want 5", got)
	}
	if len(a.Rates()) != 0 {
		t.Fatalf("rejected reports left rates %v", a.Rates())
	}
	// Rejected reports must not count as fused updates or disturb state.
	if a.Updates() != 0 {
		t.Fatalf("updates after rejected reports = %d", a.Updates())
	}
	if err := a.Update("d1", map[Pair]uint64{{m1, m2}: 100}, 1); err != nil {
		t.Fatalf("valid update failed: %v", err)
	}
	if a.Updates() != 1 {
		t.Fatalf("updates = %d", a.Updates())
	}
}

func TestUpdatesCounter(t *testing.T) {
	a := NewAggregator(Config{})
	a.Update("d1", nil, 1)
	a.Update("d2", nil, 1)
	if a.Updates() != 2 {
		t.Fatalf("updates = %d", a.Updates())
	}
}

func ringTopo(n int) map[Pair]bool {
	topo := map[Pair]bool{}
	for i := 0; i < n; i++ {
		topo[Pair{Src: ethernet.VMMAC(i), Dst: ethernet.VMMAC((i + 1) % n)}] = true
	}
	return topo
}

func TestClassifyPatterns(t *testing.T) {
	// Empty.
	if got := Classify(nil); got != PatternEmpty {
		t.Fatalf("empty = %v", got)
	}
	// Ring.
	if got := Classify(ringTopo(5)); got != PatternRing {
		t.Fatalf("ring = %v", got)
	}
	// Neighbors: ring plus its reverse.
	topo := ringTopo(5)
	for i := 0; i < 5; i++ {
		topo[Pair{Src: ethernet.VMMAC((i + 1) % 5), Dst: ethernet.VMMAC(i)}] = true
	}
	if got := Classify(topo); got != PatternNeighbors {
		t.Fatalf("neighbors = %v", got)
	}
	// All-to-all.
	a2a := map[Pair]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				a2a[Pair{Src: ethernet.VMMAC(i), Dst: ethernet.VMMAC(j)}] = true
			}
		}
	}
	if got := Classify(a2a); got != PatternAllToAll {
		t.Fatalf("all-to-all = %v", got)
	}
	// Mesh: a ring with one chord.
	mesh := ringTopo(5)
	mesh[Pair{Src: ethernet.VMMAC(0), Dst: ethernet.VMMAC(2)}] = true
	if got := Classify(mesh); got != PatternMesh {
		t.Fatalf("mesh = %v", got)
	}
	// Two disjoint 2-cycles are not one ring.
	twoCycles := map[Pair]bool{
		{Src: ethernet.VMMAC(0), Dst: ethernet.VMMAC(1)}: true,
		{Src: ethernet.VMMAC(1), Dst: ethernet.VMMAC(0)}: true,
		{Src: ethernet.VMMAC(2), Dst: ethernet.VMMAC(3)}: true,
		{Src: ethernet.VMMAC(3), Dst: ethernet.VMMAC(2)}: true,
	}
	if got := Classify(twoCycles); got == PatternRing {
		t.Fatalf("two cycles misclassified as ring")
	}
}
