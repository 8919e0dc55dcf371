package control

import (
	"errors"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
)

// rollbackApplier fails every plan after one step, rolled back, while err
// is set; otherwise it applies every step.
type rollbackApplier struct{ err error }

func (a *rollbackApplier) Apply(plan vnet.Plan) (vnet.ApplyResult, error) {
	if a.err != nil {
		return vnet.ApplyResult{Applied: 1, RolledBack: 1}, a.err
	}
	return vnet.ApplyResult{Applied: len(plan.Steps)}, nil
}

// TestTickHoldDown pins Tick's edges. Each case is a sequence of ticks on
// a fresh controller with a 1 s Interval, so a 2 s hold-down.
func TestTickHoldDown(t *testing.T) {
	const hold = 2 * time.Second
	noDemands := staticSnap()
	noDemands.Problem.Demands = nil
	type tick struct {
		at          time.Duration // after the epoch
		snap        *Snapshot     // nil: the sense phase fails
		applyErr    error
		wantRan     bool
		wantApplied bool
	}
	boom := errors.New("boom")
	cases := []struct {
		name  string
		gate  vadapt.Gate
		ticks []tick
	}{
		{name: "first tick is never held", ticks: []tick{
			{at: 0, snap: staticSnap(), wantRan: true, wantApplied: true},
		}},
		{name: "tick at exactly lastApplied+2×Interval runs", ticks: []tick{
			{at: 0, snap: staticSnap(), wantRan: true, wantApplied: true},
			{at: hold - time.Nanosecond, snap: staticSnap()},
			{at: hold, snap: staticSnap(), wantRan: true},
		}},
		{name: "skipped cycle starts no hold-down", ticks: []tick{
			{at: 0, snap: noDemands, wantRan: true},
			{at: time.Nanosecond, snap: staticSnap(), wantRan: true, wantApplied: true},
		}},
		{name: "gated cycle starts no hold-down", gate: vadapt.Gate{MinImprovement: 0.01, MinAbsolute: 1e9}, ticks: []tick{
			{at: 0, snap: staticSnap(), wantRan: true},
			{at: time.Nanosecond, snap: staticSnap(), wantRan: true},
		}},
		{name: "errored cycle starts no hold-down", ticks: []tick{
			{at: 0, wantRan: true},
			{at: time.Nanosecond, snap: staticSnap(), wantRan: true, wantApplied: true},
		}},
		{name: "rolled-back cycle starts no hold-down", ticks: []tick{
			{at: 0, snap: staticSnap(), applyErr: boom, wantRan: true},
			// The retry warm-repairs the unchanged placement, which the gate
			// refuses; what matters here is that it runs.
			{at: time.Nanosecond, snap: staticSnap(), wantRan: true},
		}},
		{name: "now earlier than the last applied plan is held", ticks: []tick{
			{at: 0, snap: staticSnap(), wantRan: true, wantApplied: true},
			{at: -time.Nanosecond, snap: staticSnap()},
			{at: -time.Hour, snap: staticSnap()},
		}},
	}
	epoch := time.Date(2006, 1, 2, 15, 4, 5, 0, time.UTC)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &StaticSource{Err: errors.New("sense down")}
			app := &rollbackApplier{}
			m := NewMetrics(obs.NewRegistry())
			c, err := New(Config{Source: src, Applier: app, Gate: tc.gate, Interval: time.Second, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			var held uint64
			for i, tk := range tc.ticks {
				src.Snap, src.Err = tk.snap, nil
				if tk.snap == nil {
					src.Err = errors.New("sense down")
				}
				app.err = tk.applyErr
				res, ran := c.Tick(epoch.Add(tk.at))
				if ran != tk.wantRan || res.Applied != tk.wantApplied {
					t.Fatalf("tick %d at %v: ran=%v applied=%v (%s), want ran=%v applied=%v",
						i, tk.at, ran, res.Applied, res.Summary(), tk.wantRan, tk.wantApplied)
				}
				if !ran {
					held++
				}
			}
			if got := m.CyclesHeld.Value(); got != held {
				t.Fatalf("control_cycles_held_total = %d, want %d", got, held)
			}
		})
	}
}

// TestTickConcurrent: ticks racing at the same instant are one step each —
// exactly one runs the cycle and applies, every other is held by it.
func TestTickConcurrent(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	c, err := New(Config{Source: &StaticSource{Snap: staticSnap()}, Applier: LogApplier{}, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	now := time.Now()
	ran := make(chan bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, ok := c.Tick(now)
			ran <- ok && res.Applied
		}()
	}
	wg.Wait()
	close(ran)
	applied := 0
	for ok := range ran {
		if ok {
			applied++
		}
	}
	if applied != 1 || m.CyclesHeld.Value() != n-1 || m.Cycles.Value() != 1 {
		t.Fatalf("%d ticks applied, %d held, %d cycles; want 1, %d, 1",
			applied, m.CyclesHeld.Value(), m.Cycles.Value(), n-1)
	}
}
