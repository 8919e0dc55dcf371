package control

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"freemeasure/internal/chaos"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// TestChaosControllerRollsBackWhenDaemonCrashes injects a daemon crash
// between sense and apply: the controller's plan includes a link to the
// dead daemon, that step fails mid-plan, and every step already applied
// must be rolled back — the overlay may never be left half-reconfigured.
func TestChaosControllerRollsBackWhenDaemonCrashes(t *testing.T) {
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	fab := chaos.NewOverlayFabric(o)
	fab.RegisterService("h3", chaos.Service{
		Down: func() error { o.Node("h3").Daemon.Close(); return nil },
	})

	// VM0@h1 talks to VM1@h2 and VM2@h3, all links equally fast: the
	// greedy target keeps the mapping and wants direct links h1-h2 and
	// h1-h3. Link steps apply in ascending pair order, so h1-h2 lands
	// before the doomed h1-h3 dial.
	g := topology.Complete(3, func(a, b topology.NodeID) (float64, float64) { return 100, 1 })
	for i, h := range hosts {
		g.SetName(topology.NodeID(i), h)
	}
	snap := &Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 3, Demands: []vadapt.Demand{
			{Src: 0, Dst: 1, Rate: 8},
			{Src: 0, Dst: 2, Rate: 4},
		}},
		Hosts:   hosts,
		VMs:     []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1), ethernet.VMMAC(2)},
		Mapping: []topology.NodeID{0, 1, 2},
	}
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c, err := New(Config{
		Source:  &StaticSource{Snap: snap},
		Applier: OverlayApplier{Overlay: o},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The crash lands before the cycle runs — the sensed snapshot is
	// already stale, which is exactly the window the rollback protects.
	if _, err := fab.Inject(chaos.Fault{Kind: chaos.Crash}, "h3"); err != nil {
		t.Fatalf("inject crash: %v", err)
	}

	res := c.RunCycle()
	if res.Err == nil {
		t.Fatalf("cycle succeeded against a crashed daemon: %s", res.Summary())
	}
	if res.Applied {
		t.Fatal("failed cycle marked applied")
	}
	var addLinks int
	for _, s := range res.Plan.Steps {
		if s.Op == vnet.OpAddLink {
			addLinks++
		}
	}
	if addLinks < 2 {
		t.Fatalf("plan has %d add-link steps, want >= 2 (one to fail): %v", addLinks, res.Plan)
	}
	if res.Result.RolledBack == 0 || res.Result.RolledBack != res.Result.Applied {
		t.Fatalf("partial apply not fully rolled back: applied=%d rolledBack=%d",
			res.Result.Applied, res.Result.RolledBack)
	}
	if m.PlansRolledBack.Value() != 1 {
		t.Fatalf("rollback counter = %d, want 1", m.PlansRolledBack.Value())
	}
	// Surviving daemons are back in the pristine star: proxy link only, no
	// rules installed.
	for _, h := range []string{"h1", "h2"} {
		d := o.Node(h).Daemon
		for _, peer := range d.Peers() {
			if peer != "proxy" {
				t.Fatalf("%s still linked to %s after rollback", h, peer)
			}
		}
		if len(d.Rules()) != 0 {
			t.Fatalf("%s still has rules after rollback: %v", h, d.Rules())
		}
	}

	// The loop survives the fault: a later sense that no longer involves
	// the dead host applies cleanly from the rolled-back state.
	snap2 := &Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 3, Demands: []vadapt.Demand{
			{Src: 0, Dst: 1, Rate: 8},
		}},
		Hosts:   hosts,
		VMs:     snap.VMs,
		Mapping: snap.Mapping,
	}
	c2, err := New(Config{Source: &StaticSource{Snap: snap2}, Applier: OverlayApplier{Overlay: o}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if res := c2.RunCycle(); res.Err != nil || !res.Applied {
		t.Fatalf("recovery cycle after crash: %s", res.Summary())
	}
}

// TestChaosSOAPSourceSurvivesWedgedEndpoint points the sense phase at one
// endpoint that accepts and never answers and one that refuses outright:
// with the per-call timeout the snapshot must still come back promptly,
// on defaults, instead of wedging the control loop.
func TestChaosSOAPSourceSurvivesWedgedEndpoint(t *testing.T) {
	unblock := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-unblock
	}))
	defer wedged.Close()
	defer close(unblock)

	refused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	refusedURL := refused.URL
	refused.Close() // the port is now closed: instant connection refused

	src := &SOAPSource{
		Hosts:     []string{"h1", "h2"},
		Endpoints: []string{wedged.URL, refusedURL},
		NumVMs:    2,
		Demands:   []vadapt.Demand{{Src: 0, Dst: 1, Rate: 5}},
		Mapping:   []topology.NodeID{0, 1},
		Timeout:   100 * time.Millisecond,
	}
	start := time.Now()
	snap, err := src.Snapshot()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("sense took %v with a wedged endpoint — timeout not applied", elapsed)
	}
	for _, p := range snap.Provenance {
		if p.Source != "default" {
			t.Fatalf("provenance %+v, want default fallback", p)
		}
		if p.Mbps != 100 || p.LatencyMs != 1 {
			t.Fatalf("fallback estimate %+v, want defaults 100/1", p)
		}
	}
	// The degraded snapshot still drives a full cycle.
	c, err := New(Config{Source: src, Applier: LogApplier{}})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.RunCycle(); res.Err != nil {
		t.Fatalf("cycle on degraded sense: %v", res.Err)
	}
}

// TestChaosSOAPSourceSurvivesGarbageEndpoint: an endpoint speaking
// non-SOAP garbage degrades to defaults the same way.
func TestChaosSOAPSourceSurvivesGarbageEndpoint(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<<<this is not xml"))
	}))
	defer garbage.Close()
	src := &SOAPSource{
		Hosts:     []string{"h1", "h2"},
		Endpoints: []string{garbage.URL, garbage.URL},
		NumVMs:    1,
		Mapping:   []topology.NodeID{0},
		Timeout:   time.Second,
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, p := range snap.Provenance {
		if p.Source != "default" {
			t.Fatalf("provenance %+v, want default fallback", p)
		}
	}
}

// TestChaosControllerHoldDownDampsAlternatingDemand runs vnetd's loop
// configuration — LogApplier, the default 0.1 / 1.0 gate, a 2 s Interval —
// against demand that alternates every tick between two VM pairs, each
// wanting its own path installed. Every cycle that sees the other pair's
// demand clears the gate and applies, so without the hold-down the loop
// re-plans on every tick. Tick must keep applied plans at least
// 2 × Interval apart, and count every held tick.
func TestChaosControllerHoldDownDampsAlternatingDemand(t *testing.T) {
	const interval = 2 * time.Second
	hosts := []string{"h1", "h2", "h3", "h4"}
	g := topology.Complete(4, func(a, b topology.NodeID) (float64, float64) { return 100, 1 })
	for i, h := range hosts {
		g.SetName(topology.NodeID(i), h)
	}
	demand := func(src, dst vadapt.VMID) *Snapshot {
		return &Snapshot{
			Problem: &vadapt.Problem{Hosts: g, NumVMs: 4,
				Demands: []vadapt.Demand{{Src: src, Dst: dst, Rate: 50}}},
			Hosts:   hosts,
			VMs:     []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1), ethernet.VMMAC(2), ethernet.VMMAC(3)},
			Mapping: []topology.NodeID{0, 1, 2, 3},
		}
	}
	snaps := [2]*Snapshot{demand(0, 1), demand(2, 3)}
	src := &StaticSource{}
	m := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Source:   src,
		Applier:  LogApplier{},
		Interval: interval,
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	var applied []time.Time
	var held uint64
	for k := 0; k < 20; k++ {
		now := start.Add(time.Duration(k) * interval)
		src.Snap = snaps[k%2]
		res, ran := c.Tick(now)
		switch {
		case !ran:
			held++
		case res.Err != nil:
			t.Fatalf("tick %d: %v", k, res.Err)
		case res.Applied:
			applied = append(applied, now)
		}
	}
	for i := 1; i < len(applied); i++ {
		if gap := applied[i].Sub(applied[i-1]); gap < 2*interval {
			t.Fatalf("plans applied %v apart (at %v and %v), want at most one per %v",
				gap, applied[i-1].Sub(start), applied[i].Sub(start), 2*interval)
		}
	}
	if len(applied) < 2 {
		t.Fatalf("%d plans applied in 20 ticks: the loop stopped adapting", len(applied))
	}
	if got := m.CyclesHeld.Value(); got != held || held == 0 {
		t.Fatalf("control_cycles_held_total = %d, held ticks = %d", got, held)
	}
}
