package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/vm"
	"freemeasure/internal/vttif"
)

// The loop tests drive the controller's Tick with synthetic times: tick k
// is at epoch + k*every and runs synchronously, so the hold-down
// assertions are exact instead of racy and nothing sleeps through an
// evaluation period. Only the Wren measurement warm-up (real traffic over
// the in-process overlay) still waits on wall time.

// loopStats counts ticks the way the loop's callers see them. Evaluations
// counts every tick; ticks inside the hold-down run no cycle, so the rest
// sum to cycles run.
type loopStats struct {
	Evaluations uint64
	Applied     uint64 // cycles whose plan was applied
	Skipped     uint64 // cycles that changed nothing: no demands, no diff, or gated
	Errors      uint64 // cycles whose sense or apply failed
}

// loop ticks a system's controller every period of synthetic time.
type loop struct {
	s     *System
	every time.Duration
	k     int
	stats loopStats
}

var epoch = time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)

// tick advances one period and runs that tick; ran is false when the tick
// fell inside the hold-down and no cycle ran.
func (l *loop) tick() (res control.CycleResult, ran bool) {
	l.k++
	res, ran = l.s.Controller().Tick(epoch.Add(time.Duration(l.k) * l.every))
	l.stats.Evaluations++
	switch {
	case !ran:
	case res.Err != nil:
		l.stats.Errors++
	case res.Applied:
		l.stats.Applied++
	default:
		l.stats.Skipped++
	}
	return res, ran
}

func TestTickMigratesAndDamps(t *testing.T) {
	s, _, v2 := slowHostSystem(t)
	// The hold-down is 2 × the controller's 1 s default Interval: the six
	// ticks below all land inside it.
	a := &loop{s: s, every: 200 * time.Millisecond}

	var applied control.CycleResult
	for deadline := time.Now().Add(45 * time.Second); !applied.Applied; {
		if time.Now().After(deadline) {
			t.Fatalf("no plan applied (stats %+v)", a.stats)
		}
		applied, _ = a.tick()
	}
	if moved := migrations(applied.Plan); !slices.Contains(moved, v2.MAC()) {
		t.Fatalf("applied plan migrates %v, not VM2: %v", moved, applied.Plan.Steps)
	}
	if v2.Daemon().Name() == "slowhost" {
		t.Fatal("VM2 still on the slow host after the applied cycle")
	}

	// Hold-down: tick through several periods — all inside the hold-down
	// window — and the loop must evaluate without running, let alone
	// applying, another cycle.
	before := a.stats
	for i := 0; i < 6; i++ {
		if res, ran := a.tick(); ran {
			t.Fatalf("cycle %d ran inside the hold-down: %s", res.Cycle, res.Summary())
		}
	}
	after := a.stats
	if after.Evaluations < before.Evaluations+5 || after.Applied != before.Applied {
		t.Fatalf("hold-down violated: %+v -> %+v", before, after)
	}
}

func TestTickSkipsWhenAlreadyGood(t *testing.T) {
	s := newTestSystem(t, []string{"h1", "h2"})
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	chatter(t, 20<<10, [2]*vm.VM{v1, v2})
	a := &loop{s: s, every: 100 * time.Millisecond}
	// Routing the demand is the only thing there is to do: no cycle may
	// migrate, and the loop must settle into declining to act.
	settled := 0
	for deadline := time.Now().Add(45 * time.Second); settled < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("loop never settled (stats %+v)", a.stats)
		}
		res, ran := a.tick()
		switch {
		case !ran:
		case res.Err != nil:
			t.Fatalf("cycle failed: %v", res.Err)
		case res.Applied:
			if moved := migrations(res.Plan); len(moved) != 0 {
				t.Fatalf("migrated %v on an already-good placement: %v", moved, res.Plan.Steps)
			}
			settled = 0
		case res.Reason == "no change" || strings.HasPrefix(res.Reason, "gate:"):
			settled++
		}
	}
	if v1.Daemon().Name() != "h1" || v2.Daemon().Name() != "h2" {
		t.Fatalf("placement changed: VM1 on %s, VM2 on %s", v1.Daemon().Name(), v2.Daemon().Name())
	}
	if st := a.stats; st.Skipped < 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want the settled cycles counted as skips", st)
	}
}

// TestLoopStopIsClean: Stop neither hangs nor panics, and after Stop and
// Close every goroutine the system started — the loop, the reporters, the
// daemons' link readers and batchers — is gone.
func TestLoopStopIsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := NewSystem(Config{
		Hosts:       []string{"h1", "h2"},
		ReportEvery: 50 * time.Millisecond,
		VTTIF:       vttif.Config{Alpha: 0.6, HoldUpdates: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.AddVM(1, "h1")
	v2, _ := s.AddVM(2, "h2")
	v1.Send(v2, 8<<10)
	a := &loop{s: s, every: 50 * time.Millisecond}
	s.Controller().Start()
	a.tick()
	s.Controller().Stop()
	s.Close()
	if st := a.stats; st.Evaluations == 0 || st.Evaluations != st.Applied+st.Skipped+st.Errors {
		t.Fatalf("stats = %+v, want every evaluation accounted for", st)
	}
	waitFor(t, "goroutines to drain to the pre-NewSystem baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
