package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// testSystem is a live star, the VMs attached to it in id order, and a
// ViewSource sensing the Proxy's global view and those VMs.
type testSystem struct {
	overlay *vnet.Overlay
	vms     []*vm.VM
	source  *ViewSource
}

// newTestSystem is a live star over hosts with one VM per host.
func newTestSystem(t *testing.T, hosts []string) *testSystem {
	t.Helper()
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	s := senseStar(o, hosts)
	for i, h := range hosts {
		s.addVM(i, h)
	}
	return s
}

// senseStar wraps a running star that has no VMs yet.
func senseStar(o *vnet.Overlay, hosts []string) *testSystem {
	s := &testSystem{overlay: o}
	s.source = &ViewSource{
		View:  o.View,
		Hosts: func() []string { return hosts },
		VMs: func() []VMInfo {
			out := make([]VMInfo, len(s.vms))
			for i, v := range s.vms {
				out[i] = VMInfo{MAC: v.MAC(), Host: v.Daemon().Name()}
			}
			return out
		},
	}
	return s
}

// addVM attaches VM id to the named host. Ids are added in increasing
// order, the source's VM order.
func (s *testSystem) addVM(id int, host string) *vm.VM {
	v := vm.New(id)
	v.AttachTo(s.overlay.Node(host).Daemon)
	s.vms = append(s.vms, v)
	return v
}

// migrator moves the test VMs between daemons by re-attaching them.
func (s *testSystem) migrator() vnet.Migrator {
	return vnet.MigratorFunc(func(mac ethernet.MAC, from, to string) error {
		target := s.overlay.Node(to)
		if target == nil {
			return fmt.Errorf("unknown host %q", to)
		}
		for _, v := range s.vms {
			if v.MAC() == mac {
				v.AttachTo(target.Daemon)
				return nil
			}
		}
		return fmt.Errorf("unknown vm %s", mac)
	})
}

// feedMeasurements reports star-leg bandwidths of 10 Mbps everywhere plus
// one fast 80 Mbps direct path between h1 and h2 — the measurement plane's
// view — and an all-to-all traffic matrix with the VM0->VM1 pair hot.
func (s *testSystem) feedMeasurements(hosts []string) {
	now := time.Now().UnixNano()
	set := func(from, to string, mbps float64) {
		s.overlay.View.Store.Put(coord.Record{Path: coord.Path{From: from, To: to}, At: now,
			Mbps: mbps, LatencyMs: 1, Kind: "test", Quality: 1})
	}
	for _, h := range hosts {
		set(h, "proxy", 10)
		set("proxy", h, 10)
	}
	set("h1", "h2", 80)
	set("h2", "h1", 80)

	traffic := make(map[vttif.Pair]uint64)
	for i := range s.vms {
		for j := range s.vms {
			if i == j {
				continue
			}
			bytes := uint64(125_000) // 1 Mbit/s
			if i == 0 && j == 1 {
				bytes = 2_500_000 // 20 Mbit/s: the hot pair
			}
			traffic[vttif.Pair{Src: s.vms[i].MAC(), Dst: s.vms[j].MAC()}] = bytes
		}
	}
	// Report each VM's outbound traffic from its current host, as the
	// daemons' VTTIF push would.
	for i, v := range s.vms {
		local := make(map[vttif.Pair]uint64)
		for p, b := range traffic {
			if p.Src == v.MAC() {
				local[p] = b
			}
		}
		s.overlay.View.Agg.Update(s.vms[i].Daemon().Name(), local, 1)
	}
}

func TestControllerReconfiguresFastPair(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4"}
	s := newTestSystem(t, hosts)
	s.feedMeasurements(hosts)

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c, err := New(Config{
		Source:  s.source,
		Applier: OverlayApplier{Overlay: s.overlay, Migrator: s.migrator()},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cycle 1: nothing is routed yet, so the synthesized current config is
	// heavily penalized and the gate must allow the first plan through.
	res1 := c.RunCycle()
	if res1.Err != nil {
		t.Fatal(res1.Err)
	}
	if !res1.Applied {
		t.Fatalf("first cycle not applied: %s", res1.Summary())
	}
	if res1.Target.Score <= res1.Current.Score {
		t.Fatalf("target %v not better than current %v", res1.Target.Score, res1.Current.Score)
	}
	if g := m.Objective.Value(); g != res1.Target.Score {
		t.Fatalf("objective gauge = %v, want %v", g, res1.Target.Score)
	}

	// Cycle 2 (fresh sense of the post-apply state): the overlay now
	// matches the plan, so within two cycles the system is reconfigured
	// and stable.
	s.feedMeasurements(hosts)
	res2 := c.RunCycle()
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}

	// The hot pair must ride a direct link: VM0's host has a link to VM1's
	// host and a forwarding rule steering VM1's MAC onto it.
	h0, h1 := s.vms[0].Daemon(), s.vms[1].Daemon()
	if h0.Name() == h1.Name() {
		t.Fatalf("hot VMs colocated on %s", h0.Name())
	}
	if _, ok := h0.Link(h1.Name()); !ok {
		t.Fatalf("no direct link %s->%s after adaptation", h0.Name(), h1.Name())
	}
	if next := h0.Rules()[s.vms[1].MAC()]; next != h1.Name() {
		t.Fatalf("rule at %s for vm1 = %q, want %q", h0.Name(), next, h1.Name())
	}

	// Cycle 3: same measurements, no drift — the diff must be empty (no
	// oscillation).
	s.feedMeasurements(hosts)
	res3 := c.RunCycle()
	if res3.Err != nil {
		t.Fatal(res3.Err)
	}
	if res3.Applied || len(res3.Plan.Steps) != 0 {
		t.Fatalf("third cycle not stable: %s (plan %v)", res3.Summary(), res3.Plan)
	}
	if res3.Reason != "no change" {
		t.Fatalf("third cycle reason = %q", res3.Reason)
	}
	if m.PlansApplied.Value() != 1 || m.Cycles.Value() != 3 {
		t.Fatalf("applied=%d cycles=%d", m.PlansApplied.Value(), m.Cycles.Value())
	}
}

// migrateVM1Snap is a static snapshot over three hosts whose target
// migrates VM1 to h2: VMs 0,1 live on h1,h3, the h1-h2 edge is fast and
// everything touching h3 is slow.
func migrateVM1Snap(hosts []string) *Snapshot {
	g := topology.New(3)
	g.AddBiEdge(0, 1, 100, 1)
	g.AddBiEdge(0, 2, 1, 1)
	g.AddBiEdge(1, 2, 1, 1)
	for i, h := range hosts {
		g.SetName(topology.NodeID(i), h)
	}
	return &Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 2,
			Demands: []vadapt.Demand{{Src: 0, Dst: 1, Rate: 5}}},
		Hosts:   hosts,
		VMs:     []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1)},
		Mapping: []topology.NodeID{0, 2},
	}
}

func TestControllerRollsBackPartialFailure(t *testing.T) {
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	// The injected migrator always fails.
	snap := migrateVM1Snap(hosts)
	boom := errors.New("migration refused")
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c, err := New(Config{
		Source: &StaticSource{Snap: snap},
		Applier: OverlayApplier{Overlay: o,
			Migrator: vnet.MigratorFunc(func(ethernet.MAC, string, string) error { return boom })},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if !errors.Is(res.Err, boom) {
		t.Fatalf("cycle err = %v, want %v", res.Err, boom)
	}
	if res.Applied {
		t.Fatal("failed cycle marked applied")
	}
	var hasMigration bool
	for _, step := range res.Plan.Steps {
		if step.Op == vnet.OpMigrate {
			hasMigration = true
		}
	}
	if !hasMigration {
		t.Fatalf("plan has no migration to fail: %v", res.Plan)
	}
	if res.Result.RolledBack == 0 || m.PlansRolledBack.Value() != 1 {
		t.Fatalf("rollback not recorded: result=%+v counter=%d",
			res.Result, m.PlansRolledBack.Value())
	}
	// The overlay is back in its pre-plan star state: no extra links, no
	// rules anywhere.
	for _, h := range hosts {
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
	// A later cycle with a working migrator succeeds from the same state.
	c2, _ := New(Config{
		Source: &StaticSource{Snap: snap},
		Applier: OverlayApplier{Overlay: o,
			Migrator: vnet.MigratorFunc(func(ethernet.MAC, string, string) error { return nil })},
	})
	if res := c2.RunCycle(); res.Err != nil || !res.Applied {
		t.Fatalf("recovery cycle: %s", res.Summary())
	}
}

// failingTail applies its plan with one more step appended that always
// fails, so every step of the real plan is rolled back.
type failingTail struct{ inner Applier }

func (a failingTail) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	plan.Steps = append(slices.Clip(plan.Steps), vnet.Step{Op: vnet.OpAddRule, Host: "no-such-host", NextHop: "h1"})
	return a.inner.Apply(plan)
}

// TestControllerCountsIncompleteRollback: a migration whose undo fails,
// then a failing step. The apply leaves the migration rollback-failed, so
// control_plans_rollback_incomplete_total reads 1, and the plan still
// counts once in control_plans_rolledback_total, as before.
func TestControllerCountsIncompleteRollback(t *testing.T) {
	hosts := []string{"h1", "h2", "h3"}
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 1, HoldUpdates: 1}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	snap := migrateVM1Snap(hosts)
	// Forward migrations succeed; moving a VM back (the undo) fails.
	moved := map[ethernet.MAC]string{}
	mig := vnet.MigratorFunc(func(mac ethernet.MAC, from, to string) error {
		if moved[mac] == from {
			return errors.New("undo refused")
		}
		moved[mac] = to
		return nil
	})
	m := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Source:  &StaticSource{Snap: snap},
		Applier: failingTail{inner: OverlayApplier{Overlay: o, Migrator: mig}},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err == nil || !strings.Contains(res.Err.Error(), "rollback incomplete") {
		t.Fatalf("cycle err = %v, want an incomplete rollback", res.Err)
	}
	var failedUndo bool
	for _, st := range res.Result.Steps {
		if st.Step.Op == vnet.OpMigrate && st.Outcome == vnet.StepRollbackFailed {
			failedUndo = true
		}
	}
	if !failedUndo {
		t.Fatalf("no migration left rollback-failed: %+v", res.Result.Steps)
	}
	if got := m.PlansRollbackIncomplete.Value(); got != 1 {
		t.Fatalf("control_plans_rollback_incomplete_total = %d, want 1", got)
	}
	if got := m.PlansRolledBack.Value(); got != 1 {
		t.Fatalf("control_plans_rolledback_total = %d, want 1 (unchanged)", got)
	}
}

func TestControllerSkipsWithoutDemands(t *testing.T) {
	g := topology.Complete(2, func(a, b topology.NodeID) (float64, float64) { return 10, 1 })
	snap := &Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 1},
		Hosts:   []string{"h1", "h2"},
		VMs:     []ethernet.MAC{ethernet.VMMAC(0)},
		Mapping: []topology.NodeID{0},
	}
	c, err := New(Config{Source: &StaticSource{Snap: snap}, Applier: LogApplier{}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err != nil || res.Applied || res.Reason != "no demands observed" {
		t.Fatalf("cycle = %s", res.Summary())
	}
}

func TestControllerTearsDownStaleState(t *testing.T) {
	// Apply a plan for one demand, then sense a world where that demand
	// vanished and a different pair is talking: the stale rule and link
	// must be torn down in the same plan that builds the new path.
	hosts := []string{"h1", "h2", "h3", "h4"}
	s := newTestSystem(t, hosts)
	mkSnap := func(src, dst vadapt.VMID, fastA, fastB topology.NodeID) *Snapshot {
		g := topology.Complete(4, func(a, b topology.NodeID) (float64, float64) {
			if (a == fastA && b == fastB) || (a == fastB && b == fastA) {
				return 100, 1
			}
			return 10, 1
		})
		for i, h := range hosts {
			g.SetName(topology.NodeID(i), h)
		}
		macs := make([]ethernet.MAC, 4)
		mapping := make([]topology.NodeID, 4)
		for i, v := range s.vms {
			macs[i] = v.MAC()
			idx := map[string]topology.NodeID{"h1": 0, "h2": 1, "h3": 2, "h4": 3}
			mapping[i] = idx[v.Daemon().Name()]
		}
		return &Snapshot{
			Problem: &vadapt.Problem{Hosts: g, NumVMs: 4,
				Demands: []vadapt.Demand{{Src: src, Dst: dst, Rate: 5}}},
			Hosts: hosts, VMs: macs, Mapping: mapping,
		}
	}
	src := &StaticSource{Snap: mkSnap(0, 1, 0, 1)}
	c, err := New(Config{
		Source:  src,
		Applier: OverlayApplier{Overlay: s.overlay, Migrator: s.migrator()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.RunCycle(); res.Err != nil || !res.Applied {
		t.Fatalf("first cycle: %s", res.Summary())
	}
	// The demand moves to a disjoint pair and so does the fast edge.
	src.Snap = mkSnap(2, 3, 2, 3)
	res := c.RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("second cycle: %s", res.Summary())
	}
	var staleRule, staleLink bool
	for _, step := range res.Plan.Steps {
		if step.Op == vnet.OpRemoveRule && step.MAC == s.vms[1].MAC() {
			staleRule = true
		}
		if step.Op == vnet.OpRemoveLink {
			staleLink = true
		}
	}
	if !staleRule || !staleLink {
		t.Fatalf("stale state not torn down: %v", res.Plan)
	}
	h0 := s.vms[0].Daemon()
	if _, ok := h0.Rules()[s.vms[1].MAC()]; ok {
		t.Fatal("stale rule survived")
	}
}

// staticSnap is a 3-host problem where the greedy target must reroute the
// single demand, so a cycle runs all the way through sense, decide, gate
// and apply.
func staticSnap() *Snapshot {
	g := topology.New(3)
	g.AddBiEdge(0, 1, 100, 1)
	g.AddBiEdge(0, 2, 1, 1)
	g.AddBiEdge(1, 2, 1, 1)
	hosts := []string{"h1", "h2", "h3"}
	for i, h := range hosts {
		g.SetName(topology.NodeID(i), h)
	}
	return &Snapshot{
		Problem: &vadapt.Problem{Hosts: g, NumVMs: 2,
			Demands: []vadapt.Demand{{Src: 0, Dst: 1, Rate: 5}}},
		Hosts:   hosts,
		VMs:     []ethernet.MAC{ethernet.VMMAC(0), ethernet.VMMAC(1)},
		Mapping: []topology.NodeID{0, 2},
		Provenance: []PathProvenance{
			{From: "h1", To: "h2", Mbps: 100, LatencyMs: 1, Source: "direct", Kind: "test", Quality: 1},
			{From: "h1", To: "h3", Mbps: 1, LatencyMs: 1, Source: "hub-legs", Kind: "test", Quality: 0.5},
		},
	}
}

// TestCycleFlightRecording is the golden path of the flight recorder: one
// controller cycle against a StaticSource must leave sense, decide and
// apply spans — plus the gate verdict with both objective values — on
// /debug/events, all correlated by the cycle's trace ID.
func TestCycleFlightRecording(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	var logBuf bytes.Buffer
	c, err := New(Config{
		Source:  &StaticSource{Snap: staticSnap()},
		Applier: LogApplier{},
		Metrics: NewMetrics(obs.NewRegistry()),
		Logger:  obs.NewLogger(&logBuf, "control", "test"),
		Flight:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err != nil || !res.Applied {
		t.Fatalf("cycle: %s", res.Summary())
	}
	if res.Trace == "" || res.Cycle != 1 {
		t.Fatalf("cycle identity missing: cycle=%d trace=%q", res.Cycle, res.Trace)
	}

	// Read the cycle back the way an operator would: over HTTP.
	mux := obs.NewMux(obs.NewRegistry(), nil, obs.WithFlight(fr))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?trace="+res.Trace, nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/events: %d", rec.Code)
	}
	var pg struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pg); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}

	byName := make(map[string]obs.Event)
	for _, e := range pg.Events {
		if e.Trace != res.Trace {
			t.Fatalf("event %q leaked into trace filter: %+v", e.Name, e)
		}
		if e.Component != "control" {
			t.Fatalf("event %q component = %q", e.Name, e.Component)
		}
		byName[e.Name] = e
	}
	for name, phase := range map[string]string{
		"sense": "sense", "decide": "decide", "gate": "decide", "apply": "apply",
	} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("cycle left no %q event; got %v", name, pg.Events)
		}
		if e.Phase != phase {
			t.Fatalf("%q phase = %q, want %q", name, e.Phase, phase)
		}
	}
	// The gate verdict must carry both objective values.
	gate := byName["gate"].Attrs
	if gate["allowed"] != true {
		t.Fatalf("gate not allowed: %v", gate)
	}
	if gate["current_score"].(float64) != res.Current.Score ||
		gate["target_score"].(float64) != res.Target.Score {
		t.Fatalf("gate scores %v, want %v -> %v", gate, res.Current.Score, res.Target.Score)
	}
	// Sense recorded measurement provenance; apply recorded per-step results.
	if byName["sense"].Attrs["estimates"] == nil {
		t.Fatalf("sense span has no provenance: %v", byName["sense"].Attrs)
	}
	if byName["apply"].Attrs["applied"].(float64) != float64(res.Result.Applied) {
		t.Fatalf("apply span attrs %v, want applied=%d", byName["apply"].Attrs, res.Result.Applied)
	}

	// The structured log line for the cycle joins on the same identifiers.
	line := logBuf.String()
	for _, want := range []string{"plan applied", "component=control",
		"trace=" + res.Trace, "cycle=1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line missing %q:\n%s", want, line)
		}
	}
}

// TestCycleFlightSkippedByGate checks the other interesting verdict: when
// the gate refuses a plan, the decide span says so and no apply span exists.
func TestCycleFlightSkippedByGate(t *testing.T) {
	snap := staticSnap()
	fr := obs.NewFlightRecorder(0)
	c, err := New(Config{
		Source:  &StaticSource{Snap: snap},
		Applier: LogApplier{},
		Gate:    vadapt.Gate{MinImprovement: 0.01, MinAbsolute: 1e9},
		Flight:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunCycle()
	if res.Err != nil || res.Applied || res.GateAllowed {
		t.Fatalf("cycle should be gated: %s", res.Summary())
	}
	var sawGate bool
	for _, e := range fr.Events(0) {
		if e.Phase == "apply" {
			t.Fatalf("gated cycle emitted an apply event: %+v", e)
		}
		if e.Name == "gate" {
			sawGate = true
			if e.Attrs["allowed"] != false {
				t.Fatalf("gate event claims allowed: %v", e.Attrs)
			}
		}
	}
	if !sawGate {
		t.Fatal("no gate event recorded")
	}
	if _, ok := c.LastCycle(); !ok {
		t.Fatal("LastCycle empty after a run")
	}
}

// TestDebugStateAfterCycle drives /debug/state end to end: after an
// applied cycle it must expose the installed rules/links and the last
// cycle's trace, gate verdict and scores.
func TestDebugStateAfterCycle(t *testing.T) {
	c, err := New(Config{
		Source:  &StaticSource{Snap: staticSnap()},
		Applier: LogApplier{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.RunCycle(); res.Err != nil || !res.Applied {
		t.Fatalf("cycle: %s", res.Summary())
	}
	mux := obs.NewMux(obs.NewRegistry(), nil, obs.WithState(c.DebugState))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/state", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/state: %d", rec.Code)
	}
	var st struct {
		Cycles    uint64 `json:"cycles"`
		Installed struct {
			Rules []installedRule `json:"rules"`
			Links [][2]string     `json:"links"`
		} `json:"installed"`
		LastCycle *lastCycleState `json:"last_cycle"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if st.Cycles != 1 || st.LastCycle == nil {
		t.Fatalf("state = %+v", st)
	}
	lc := st.LastCycle
	if lc.Cycle != 1 || lc.Trace == "" || !lc.Applied || !lc.GateAllowed {
		t.Fatalf("last cycle = %+v", lc)
	}
	if lc.TargetScore <= lc.CurrentScore {
		t.Fatalf("scores not improving: %v -> %v", lc.CurrentScore, lc.TargetScore)
	}
	if len(lc.Plan) == 0 || len(lc.StepResults) == 0 || len(lc.Provenance) == 0 {
		t.Fatalf("last cycle missing plan/steps/provenance: %+v", lc)
	}
	if len(st.Installed.Rules) == 0 {
		t.Fatalf("no installed rules in state: %+v", st.Installed)
	}
}

// TestTeardownPlanIsDeterministic: the teardown steps for vanished demands
// come out of the installed-rule and installed-link maps, and must not
// inherit their iteration order — the same snapshot sequence has to yield
// the same plan (and so the same flight-recorder trace) on every run.
func TestTeardownPlanIsDeterministic(t *testing.T) {
	hosts := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	mkSnap := func(demands ...[2]vadapt.VMID) *Snapshot {
		g := topology.Complete(len(hosts), func(a, b topology.NodeID) (float64, float64) { return 10, 1 })
		snap := &Snapshot{Problem: &vadapt.Problem{Hosts: g, NumVMs: len(hosts)}, Hosts: hosts}
		for i, h := range hosts {
			g.SetName(topology.NodeID(i), h)
			snap.VMs = append(snap.VMs, ethernet.VMMAC(i))
			snap.Mapping = append(snap.Mapping, topology.NodeID(i))
		}
		for _, d := range demands {
			snap.Problem.Demands = append(snap.Problem.Demands, vadapt.Demand{Src: d[0], Dst: d[1], Rate: 1})
		}
		return snap
	}
	// Ten demands install ten rules and ten links; then all of them vanish
	// and one pair that never talked before takes over.
	busy := mkSnap([2]vadapt.VMID{0, 1}, [2]vadapt.VMID{1, 2}, [2]vadapt.VMID{2, 3}, [2]vadapt.VMID{3, 4},
		[2]vadapt.VMID{4, 5}, [2]vadapt.VMID{5, 0}, [2]vadapt.VMID{0, 2}, [2]vadapt.VMID{1, 3},
		[2]vadapt.VMID{2, 4}, [2]vadapt.VMID{3, 5})
	quiet := mkSnap([2]vadapt.VMID{0, 3})

	var first []vnet.Step
	for run := 0; run < 20; run++ {
		src := &StaticSource{Snap: busy}
		c, err := New(Config{Source: src, Applier: LogApplier{}})
		if err != nil {
			t.Fatal(err)
		}
		if res := c.RunCycle(); res.Err != nil || !res.Applied {
			t.Fatalf("run %d, busy cycle: %s", run, res.Summary())
		}
		src.Snap = quiet
		res := c.RunCycle()
		if res.Err != nil || !res.Applied {
			t.Fatalf("run %d, quiet cycle: %s", run, res.Summary())
		}
		if run > 0 {
			if !reflect.DeepEqual(res.Plan.Steps, first) {
				t.Fatalf("run %d emitted a differently ordered plan:\n%v\nfirst run:\n%v", run, res.Plan.Steps, first)
			}
			continue
		}
		first = res.Plan.Steps
		var rules []ruleSite
		var links [][2]string
		for _, s := range first {
			switch s.Op {
			case vnet.OpRemoveRule:
				rules = append(rules, ruleSite{Host: s.Host, MAC: s.MAC})
			case vnet.OpRemoveLink:
				links = append(links, [2]string{s.A, s.B})
			}
		}
		if len(rules) < 8 || len(links) < 8 {
			t.Fatalf("teardown has %d rules and %d links, want at least 8 of each:\n%v", len(rules), len(links), first)
		}
		if !slices.IsSortedFunc(rules, compareSites) || !slices.IsSortedFunc(links, compareLinks) {
			t.Fatalf("teardown not sorted (rules by host then MAC, links by key):\n%v", first)
		}
	}
}
