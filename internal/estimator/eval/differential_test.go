package eval

import (
	"testing"

	"freemeasure/internal/estimator"
	"freemeasure/internal/simnet"
)

// TestMonitorMatchesStandaloneSIC: the Wren monitor's per-path estimate is
// the estimator zoo's "sic" fed the monitor's own train feed. A standalone
// SIC per remote, fed from the train hook over the seeded lan-steps run,
// must equal every Scan row field for field after every poll, and its
// observation time must be the row's At.
func TestMonitorMatchesStandaloneSIC(t *testing.T) {
	sc := LANSteps()
	sim, tp, _, mon := buildRun(sc, 1)
	cfg := estimator.Config{Window: 48, MaxAge: 15_000_000_000}
	zoo := make(map[string]estimator.Estimator)
	mon.SetTrainHook(func(remote string, o estimator.Observation) {
		e, ok := zoo[remote]
		if !ok {
			e = estimator.MustNew("sic", cfg)
			zoo[remote] = e
		}
		e.Observe(o)
	})
	polls, compared := 0, 0
	var poll func()
	poll = func() {
		mon.Poll()
		polls++
		for _, po := range mon.Scan() {
			e, ok := zoo[po.Remote]
			if !ok {
				t.Fatalf("poll %d: Scan row %s has no hook-fed estimator", polls, po.Remote)
			}
			want, ok := e.Estimate(int64(sim.Now()))
			if !ok {
				t.Fatalf("poll %d: hook-fed SIC for %s has no estimate, monitor has %+v", polls, po.Remote, po.Estimate)
			}
			if po.Estimate != want || po.At != want.At {
				t.Fatalf("poll %d, remote %s: monitor %+v (At %d), standalone sic %+v",
					polls, po.Remote, po.Estimate, po.At, want)
			}
			compared++
		}
		tp.net.After(simnet.Seconds(0.5), poll)
	}
	tp.net.After(simnet.Seconds(0.5), poll)
	sim.RunUntil(simnet.Time(sc.Duration))
	t.Logf("%d rows compared over %d polls", compared, polls)
	if compared < polls/2 {
		t.Fatalf("only %d rows compared over %d polls", compared, polls)
	}
}
