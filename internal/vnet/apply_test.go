package vnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

func applyOverlay(t *testing.T, names ...string) *Overlay {
	t.Helper()
	o, err := NewStar(names, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

func waitLink(t *testing.T, d *Daemon, peer string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := d.Link(peer); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never saw a link to %s", d.Name(), peer)
}

func TestApplyInstallsLinksAndRules(t *testing.T) {
	o := applyOverlay(t, "h1", "h2", "h3")
	mac := ethernet.VMMAC(1)
	plan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},
		{Op: OpAddRule, Host: "h1", NextHop: "h2", MAC: mac},
	}}
	res, err := o.Apply(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Skipped != 0 || res.RolledBack != 0 {
		t.Fatalf("result = %+v", res)
	}
	waitLink(t, o.Node("h2").Daemon, "h1")
	if got := o.Node("h1").Daemon.Rules()[mac]; got != "h2" {
		t.Fatalf("rule = %q, want h2", got)
	}
	// Re-applying the same plan is a no-op: everything is skipped.
	res, err = o.Apply(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || res.Skipped != 2 {
		t.Fatalf("second apply = %+v", res)
	}
}

func TestApplyRemovesAndRefusesProxyTeardown(t *testing.T) {
	o := applyOverlay(t, "h1", "h2")
	mac := ethernet.VMMAC(1)
	_, err := o.Apply(Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},
		{Op: OpAddRule, Host: "h1", NextHop: "h2", MAC: mac},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitLink(t, o.Node("h2").Daemon, "h1")
	res, err := o.Apply(Plan{Steps: []Step{
		{Op: OpRemoveRule, Host: "h1", MAC: mac},
		{Op: OpRemoveLink, A: "h1", B: "h2"},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 {
		t.Fatalf("teardown result = %+v", res)
	}
	if _, ok := o.Node("h1").Daemon.Rules()[mac]; ok {
		t.Fatal("rule survived removal")
	}
	if _, ok := o.Node("h1").Daemon.Link("h2"); ok {
		t.Fatal("link survived removal")
	}
	// The star must stay intact: removing a proxy link is refused.
	_, err = o.Apply(Plan{Steps: []Step{{Op: OpRemoveLink, A: "h1", B: "proxy"}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "proxy") {
		t.Fatalf("proxy teardown err = %v", err)
	}
}

func TestApplyRollsBackOnFailure(t *testing.T) {
	o := applyOverlay(t, "h1", "h2", "h3")
	mac1, mac2 := ethernet.VMMAC(1), ethernet.VMMAC(2)
	boom := errors.New("migration exploded")
	var migrations []string
	mig := MigratorFunc(func(mac ethernet.MAC, from, to string) error {
		migrations = append(migrations, from+"->"+to)
		if to == "h3" {
			return boom
		}
		return nil
	})
	plan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},
		{Op: OpAddRule, Host: "h1", NextHop: "h2", MAC: mac1},
		{Op: OpMigrate, MAC: mac2, A: "h1", B: "h2"}, // succeeds
		{Op: OpMigrate, MAC: mac2, A: "h2", B: "h3"}, // fails
	}}
	res, err := o.Apply(plan, mig)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if res.RolledBack != 3 {
		t.Fatalf("result = %+v, want 3 rolled back", res)
	}
	// The successful migration was undone with swapped endpoints.
	want := []string{"h1->h2", "h2->h3", "h2->h1"}
	if len(migrations) != 3 || migrations[0] != want[0] || migrations[1] != want[1] || migrations[2] != want[2] {
		t.Fatalf("migrations = %v, want %v", migrations, want)
	}
	// Link and rule are back to their pre-plan state.
	if _, ok := o.Node("h1").Daemon.Rules()[mac1]; ok {
		t.Fatal("rule survived rollback")
	}
	if _, ok := o.Node("h1").Daemon.Link("h2"); ok {
		t.Fatal("link survived rollback")
	}
}

func TestApplyRecordsPerStepOutcomes(t *testing.T) {
	o := applyOverlay(t, "h1", "h2", "h3")
	mac1, mac2 := ethernet.VMMAC(1), ethernet.VMMAC(2)
	o.Node("h1").Daemon.AddRule(mac1, "h2") // makes the add-rule step a no-op
	boom := errors.New("migration exploded")
	mig := MigratorFunc(func(mac ethernet.MAC, from, to string) error {
		if to == "h3" {
			return boom
		}
		return nil
	})
	plan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},                     // applied, then undone
		{Op: OpAddRule, Host: "h1", NextHop: "h2", MAC: mac1}, // already satisfied
		{Op: OpMigrate, MAC: mac2, A: "h1", B: "h2"},          // applied, then undone
		{Op: OpMigrate, MAC: mac2, A: "h2", B: "h3"},          // fails
		{Op: OpAddRule, Host: "h2", NextHop: "h3", MAC: mac2},
	}}
	res, err := o.Apply(plan, mig)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := []StepOutcome{StepRolledBack, StepSkipped, StepRolledBack, StepFailed, StepNotReached}
	if len(res.Steps) != len(want) {
		t.Fatalf("recorded %d step results, want %d", len(res.Steps), len(want))
	}
	for i, sr := range res.Steps {
		if sr.Outcome != want[i] {
			t.Fatalf("step %d (%s) outcome = %q, want %q", i, sr.Desc, sr.Outcome, want[i])
		}
		if sr.Desc == "" {
			t.Fatalf("step %d has no description", i)
		}
		if sr.Step.String() != plan.Steps[i].String() {
			t.Fatalf("step %d result detached from its step", i)
		}
	}
	if res.Steps[3].Err == "" || !strings.Contains(res.Steps[3].Err, "exploded") {
		t.Fatalf("failed step error = %q", res.Steps[3].Err)
	}
	if res.Applied != 2 || res.Skipped != 1 || res.RolledBack != 2 {
		t.Fatalf("counters = %+v", res)
	}

	// The success path marks every step applied or skipped.
	okPlan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},
		{Op: OpAddRule, Host: "h1", NextHop: "h2", MAC: mac1}, // still installed
	}}
	res, err = o.Apply(okPlan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Outcome != StepApplied || res.Steps[1].Outcome != StepSkipped {
		t.Fatalf("success outcomes = %+v", res.Steps)
	}
}

// TestApplyReportsFailedUndo: an undo that errors leaves its step marked
// rollback-failed with the undo's error, and Apply's error says the
// rollback is incomplete. RolledBack still counts every undo executed.
func TestApplyReportsFailedUndo(t *testing.T) {
	o := applyOverlay(t, "h1", "h2", "h3")
	mac := ethernet.VMMAC(1)
	refused := errors.New("h1 refuses the VM back")
	mig := MigratorFunc(func(mac ethernet.MAC, from, to string) error {
		if from == "h2" && to == "h1" {
			return refused
		}
		return nil
	})
	plan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},                         // applied, then undone
		{Op: OpMigrate, MAC: mac, A: "h1", B: "h2"},               // applied; its undo fails
		{Op: OpAddRule, Host: "nowhere", NextHop: "h2", MAC: mac}, // fails
	}}
	res, err := o.Apply(plan, mig)
	want := []StepOutcome{StepRolledBack, StepRollbackFailed, StepFailed}
	for i, sr := range res.Steps {
		if sr.Outcome != want[i] {
			t.Fatalf("step %d (%s) outcome = %q, want %q", i, sr.Desc, sr.Outcome, want[i])
		}
	}
	if !strings.Contains(res.Steps[1].Err, "refuses") {
		t.Fatalf("rollback-failed step error = %q", res.Steps[1].Err)
	}
	if !errors.Is(err, refused) || !strings.Contains(err.Error(), "rollback incomplete") {
		t.Fatalf("err = %v, want the failed step and an incomplete rollback", err)
	}
	if !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("err = %v lost the failing step's cause", err)
	}
	if res.RolledBack != 2 {
		t.Fatalf("RolledBack = %d, want 2 undo actions executed", res.RolledBack)
	}
	if _, ok := o.Node("h1").Daemon.Link("h2"); ok {
		t.Fatal("link survived rollback")
	}
}

func TestApplyMigrationNeedsMigrator(t *testing.T) {
	o := applyOverlay(t, "h1", "h2")
	plan := Plan{Steps: []Step{
		{Op: OpAddLink, A: "h1", B: "h2"},
		{Op: OpMigrate, MAC: ethernet.VMMAC(1), A: "h1", B: "h2"},
	}}
	res, err := o.Apply(plan, nil)
	if err == nil {
		t.Fatal("nil migrator accepted")
	}
	// Validated up front: nothing was applied, so nothing to roll back.
	if res.Applied != 0 || res.RolledBack != 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, ok := o.Node("h1").Daemon.Link("h2"); ok {
		t.Fatal("link created despite up-front validation failure")
	}
}

func TestApplyRuleOverwriteRollsBackToPrevious(t *testing.T) {
	o := applyOverlay(t, "h1", "h2", "h3")
	mac := ethernet.VMMAC(1)
	o.Node("h1").Daemon.AddRule(mac, "h2")
	boom := errors.New("no")
	mig := MigratorFunc(func(ethernet.MAC, string, string) error { return boom })
	_, err := o.Apply(Plan{Steps: []Step{
		{Op: OpAddRule, Host: "h1", NextHop: "h3", MAC: mac},
		{Op: OpMigrate, MAC: mac, A: "h1", B: "h3"},
	}}, mig)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := o.Node("h1").Daemon.Rules()[mac]; got != "h2" {
		t.Fatalf("rule after rollback = %q, want the original h2", got)
	}
}

func TestReporterPushesToView(t *testing.T) {
	o := applyOverlay(t, "h1", "h2")
	// Drive one report cycle by hand through the standalone Reporter path.
	n := o.Node("h1")
	rep := NewReporter(Reporting{Daemon: n.Daemon, Wren: n.Wren, Peer: "proxy"}, 50*time.Millisecond)
	rep.Start()
	defer rep.Stop()
	// Generate some traffic so the VTTIF matrix is non-empty.
	src, dst := ethernet.VMMAC(1), ethernet.VMMAC(2)
	o.Node("h2").Daemon.AttachVM(dst, func(*ethernet.Frame) {})
	n.Daemon.AttachVM(src, func(*ethernet.Frame) {})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		n.Daemon.InjectFrame(&ethernet.Frame{Src: src, Dst: dst, Payload: []byte("x")})
		if len(o.View.Agg.Rates()) > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("reporter never delivered a VTTIF matrix to the proxy view")
}

// A plan that spans two proxy shards — rules on hosts homed to different
// shards — fails mid-plan; rollback must leave the ring membership on
// every member and every host's home assignment as they were, and restore
// both shards' rule state.
func TestApplyRollbackSpansProxyShards(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4", "h5", "h6"}
	o, err := NewMesh([]string{"pa", "pb", "pc"}, hosts, vttif.Config{}, wren.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)

	// Pick two hosts whose home proxies differ, so the plan genuinely
	// touches two shards.
	var hA, hB string
	for _, a := range hosts {
		for _, b := range hosts {
			if o.Ring.HomeProxy(a) != o.Ring.HomeProxy(b) {
				hA, hB = a, b
			}
		}
	}
	if hA == "" {
		t.Fatal("all hosts homed to one shard; pick different host names")
	}
	origRing := o.Ring
	origHomeA := o.Node(hA).Daemon.DefaultRoute()
	origHomeB := o.Node(hB).Daemon.DefaultRoute()

	mac1, mac2 := ethernet.VMMAC(101), ethernet.VMMAC(102)
	plan := Plan{Steps: []Step{
		{Op: OpAddRule, Host: hA, NextHop: hB, MAC: mac1},
		{Op: OpAddRule, Host: hB, NextHop: hA, MAC: mac2},
		{Op: OpAddRule, Host: "no-such-host", NextHop: hA, MAC: mac1},
	}}
	res, err := o.Apply(plan, nil)
	if err == nil {
		t.Fatal("plan with unknown host applied cleanly")
	}
	if res.Applied != 2 || res.RolledBack != 2 {
		t.Fatalf("result = %+v, want 2 applied and 2 rolled back", res)
	}
	for i, want := range []StepOutcome{StepRolledBack, StepRolledBack, StepFailed} {
		if got := res.Steps[i].Outcome; got != want {
			t.Fatalf("step %d outcome = %s, want %s", i, got, want)
		}
	}

	// Ring membership intact everywhere, on proxies and hosts alike.
	if o.Ring.Version() != origRing.Version() {
		t.Fatalf("overlay ring = %v, want original %v", o.Ring.Members(), origRing.Members())
	}
	for _, p := range o.Proxies {
		if r := p.Daemon.Ring(); r == nil || r.Version() != origRing.Version() {
			t.Fatalf("proxy %s ring changed", p.Daemon.Name())
		}
	}
	for _, n := range o.Nodes {
		if r := n.Daemon.Ring(); r == nil || r.Version() != origRing.Version() {
			t.Fatalf("host %s ring changed", n.Daemon.Name())
		}
	}
	// Home assignments intact on both shards' hosts.
	if got := o.Node(hA).Daemon.DefaultRoute(); got != origHomeA {
		t.Fatalf("%s default route = %q, want %q", hA, got, origHomeA)
	}
	if got := o.Node(hB).Daemon.DefaultRoute(); got != origHomeB {
		t.Fatalf("%s default route = %q, want %q", hB, got, origHomeB)
	}
	// Both shards' rule state rolled back.
	if _, ok := o.Node(hA).Daemon.Rules()[mac1]; ok {
		t.Fatalf("%s still holds the rolled-back rule", hA)
	}
	if _, ok := o.Node(hB).Daemon.Rules()[mac2]; ok {
		t.Fatalf("%s still holds the rolled-back rule", hB)
	}
}
