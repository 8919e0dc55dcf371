package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/obs"
	"freemeasure/internal/simnet"
	"freemeasure/internal/tcpsim"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/wren"
)

// chaosSeed returns the scenario seed: CHAOS_SEED when set (the CI matrix
// pins several), 42 otherwise.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return seed
	}
	return 42
}

// dumpTrace writes the flight-recorder contents as JSON under
// CHAOS_TRACE_DIR (no-op when unset). CI uploads these on failure so a
// broken seed can be replayed with its full fault timeline.
func dumpTrace(t *testing.T, fr *obs.FlightRecorder, seed int64) {
	dir := os.Getenv("CHAOS_TRACE_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos trace dir: %v", err)
		return
	}
	data, err := json.MarshalIndent(fr.Events(0), "", "  ")
	if err != nil {
		t.Logf("chaos trace marshal: %v", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d.json", t.Name(), seed)
	name = filepath.Join(dir, filepath.Base(name))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Logf("chaos trace write: %v", err)
	}
}

// lanEqualAccess mirrors the wren test rig: access links at the same
// 100 Mbit/s as the bottleneck so application bursts probe at most the
// path capacity and estimates land near 100.
func lanEqualAccess() simnet.DumbbellConfig {
	return simnet.DumbbellConfig{
		AccessMbps:           100,
		AccessDelay:          simnet.Milliseconds(0.05),
		BottleneckMbps:       100,
		BottleneckDelay:      simnet.Milliseconds(0.2),
		BottleneckQueueBytes: 64 * 1000,
	}
}

// runPartitionScenario plays the acceptance scenario — 5%% loss on the
// bottleneck from t=2s..8s, a full partition from t=4s..6s, and a vadapt
// decide step at t=4.5s (mid-partition) — over a monitored dumbbell, and
// returns the complete deterministic transcript: every fault transition,
// the decide outcome, the Wren observation stream, and the bottleneck
// link stats.
func runPartitionScenario(t *testing.T, seed int64, fr *obs.FlightRecorder) []byte {
	t.Helper()
	sim := simnet.NewSim()
	d := simnet.NewDumbbell(sim, 2, 2, lanEqualAccess())

	conn := tcpsim.NewConnection(d.Net, 1, d.Left[0], d.Right[0], tcpsim.Config{})
	tcpsim.StartMessageApp(conn, []tcpsim.MessagePhase{
		{Count: 20, Size: 20 << 10, Spacing: simnet.Milliseconds(100)},
		{Count: 10, Size: 50 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
	}, 0, -1, 7)

	m := wren.NewMonitor(wren.HostName(d.Left[0]), wren.Config{})
	wren.AttachSim(m, d.Net, d.Left[0])
	wren.StartPolling(m, d.Net, simnet.Seconds(0.5))
	remote := wren.HostName(d.Right[0])

	log := &Log{}
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{
				{At: 2 * time.Second, Fault: Fault{Kind: Loss, Rate: 0.05},
					Target: fmt.Sprintf("%d->%d", d.RouterL, d.RouterR), Duration: 6 * time.Second},
				{At: 4 * time.Second, Fault: Fault{Kind: Partition},
					Target: fmt.Sprintf("%d<->%d", d.RouterL, d.RouterR), Duration: 2 * time.Second},
			},
		},
		Fabric: NewSimFabric(d.Net, seed),
		Log:    log,
		Flight: fr,
	}
	if err := r.ScheduleSim(sim); err != nil {
		t.Fatalf("ScheduleSim: %v", err)
	}

	// The adaptation cycle fires mid-partition: sense from Wren, decide
	// with the greedy optimizer, gate the plan. Nothing is applied (the
	// substrate is a simnet, not an overlay) — the transcript records what
	// the controller WOULD do, which is the deterministic artifact.
	sim.Schedule(simnet.Time(simnet.Seconds(4.5)), func() {
		bw, lat := 100.0, 0.5
		if est, ok := m.AvailableBandwidth(remote); ok {
			bw = est.Mbps
		}
		if l, ok := m.Latency(remote); ok {
			lat = l
		}
		p := &vadapt.Problem{
			Hosts:  topology.Complete(2, func(from, to topology.NodeID) (float64, float64) { return bw, lat }),
			NumVMs: 2,
			Demands: []vadapt.Demand{
				{Src: 0, Dst: 1, Rate: bw / 2},
			},
		}
		curMap := []topology.NodeID{0, 0}
		cur := &vadapt.Config{Mapping: curMap, Paths: vadapt.GreedyPaths(p, curMap)}
		tgt := vadapt.Greedy(p)
		obj := vadapt.ResidualBW{}
		curEv, tgtEv := obj.Evaluate(p, cur), obj.Evaluate(p, tgt)
		gate := vadapt.Gate{}.WithDefaults().Allows(curEv, tgtEv)
		plan := vadapt.Diff(p, cur, tgt)
		log.Addf("decide bw=%.4f lat=%.4f cur=%.4f tgt=%.4f gate=%v plan=%d",
			bw, lat, curEv.Score, tgtEv.Score, gate, len(plan.Steps))
	})

	sim.RunUntil(simnet.Time(simnet.Seconds(12)))

	for _, o := range m.Observations(remote, 0) {
		log.Addf("obs at=%d isr=%.6f congested=%v len=%d", o.At, o.RateMbps, o.Congested, o.TrainLen)
	}
	st := d.Forward.Stats()
	log.Addf("fwd enq=%d drop=%d lost=%d delv=%d bytes=%d",
		st.Enqueued, st.Dropped, st.Lost, st.Delivered, st.BytesSent)
	return log.Bytes()
}

// TestChaosSeededScenarioReplaysByteForByte is the acceptance gate: the
// partition-during-adaptation scenario, run twice from the same seed,
// produces byte-identical transcripts — and a different seed does not.
func TestChaosSeededScenarioReplaysByteForByte(t *testing.T) {
	seed := chaosSeed(t)
	fr := obs.NewFlightRecorder(0)
	defer dumpTrace(t, fr, seed)
	first := runPartitionScenario(t, seed, fr)
	second := runPartitionScenario(t, seed, nil)
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed %d diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty transcript")
	}
	other := runPartitionScenario(t, seed+1, nil)
	if bytes.Equal(first, other) {
		t.Fatalf("seeds %d and %d produced identical transcripts — fault injection is not seeded", seed, seed+1)
	}
	t.Logf("transcript (%d bytes, seed %d):\n%s", len(first), seed, first)
}

// TestChaosEstimatesReconvergeAfterLoss asserts the measurement pipeline
// recovers: a heavy loss episode disrupts Wren's passive estimates, and
// once it clears the estimates settle back into the idle-path band.
func TestChaosEstimatesReconvergeAfterLoss(t *testing.T) {
	seed := chaosSeed(t)
	sim := simnet.NewSim()
	d := simnet.NewDumbbell(sim, 2, 2, lanEqualAccess())

	conn := tcpsim.NewConnection(d.Net, 1, d.Left[0], d.Right[0], tcpsim.Config{})
	tcpsim.StartMessageApp(conn, []tcpsim.MessagePhase{
		{Count: 20, Size: 20 << 10, Spacing: simnet.Milliseconds(100)},
		{Count: 10, Size: 50 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 4, Size: 1 << 20, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
	}, 0, -1, 7)

	m := wren.NewMonitor(wren.HostName(d.Left[0]), wren.Config{})
	wren.AttachSim(m, d.Net, d.Left[0])
	wren.StartPolling(m, d.Net, simnet.Seconds(0.5))
	remote := wren.HostName(d.Right[0])

	const faultStart, faultEnd = 10, 16
	r := &Runner{
		Scenario: Scenario{
			Events: []Event{
				{At: faultStart * time.Second, Fault: Fault{Kind: Loss, Rate: 0.2},
					Target:   fmt.Sprintf("%d<->%d", d.RouterL, d.RouterR),
					Duration: (faultEnd - faultStart) * time.Second},
			},
		},
		Fabric: NewSimFabric(d.Net, seed),
		Log:    &Log{},
	}
	if err := r.ScheduleSim(sim); err != nil {
		t.Fatalf("ScheduleSim: %v", err)
	}

	var before estimator.Estimate
	var beforeOK bool
	sim.Schedule(simnet.Time(simnet.Seconds(faultStart-0.5)), func() {
		before, beforeOK = m.AvailableBandwidth(remote)
	})
	sim.RunUntil(simnet.Time(simnet.Seconds(40)))

	if !beforeOK {
		t.Fatal("no estimate before the loss episode")
	}
	if before.Mbps < 60 || before.Mbps > 110 {
		t.Fatalf("pre-fault estimate = %+v, want ~100 Mbit/s idle path", before)
	}
	after, ok := m.AvailableBandwidth(remote)
	if !ok {
		t.Fatal("no estimate after the loss episode cleared")
	}
	if after.Mbps < 60 || after.Mbps > 110 {
		t.Fatalf("post-fault estimate = %+v, want reconvergence to ~100 Mbit/s (pre-fault %.1f)", after, before.Mbps)
	}
	// The observation stream resumed after the fault cleared: at least one
	// measurement is stamped past the episode's end.
	post := m.Observations(remote, int64(simnet.Seconds(faultEnd+1)))
	if len(post) == 0 {
		t.Fatal("no Wren observations after the loss episode cleared")
	}
	if st := d.Forward.Stats(); st.Lost == 0 {
		t.Fatalf("loss episode injected nothing: %+v", st)
	}
}
