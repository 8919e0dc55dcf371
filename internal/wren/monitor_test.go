package wren

import (
	"testing"

	"freemeasure/internal/estimator"
	"freemeasure/internal/pcap"
	"freemeasure/internal/simnet"
	"freemeasure/internal/tcpsim"
)

func TestMonitorSyntheticFlow(t *testing.T) {
	m := NewMonitor("a", Config{})
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*50*us })
	m.FeedAll(outs)
	m.FeedAll(acks)
	// Close the run with a much later heartbeat record on another flow.
	m.Feed(pcap.Record{At: outs[19].At + 200_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	n := m.Poll()
	if n != 1 {
		t.Fatalf("Poll produced %d observations, want 1", n)
	}
	est, ok := m.AvailableBandwidth("b")
	if !ok {
		t.Fatal("no estimate for remote b")
	}
	if est.Kind != estimator.UpperBound {
		t.Fatalf("kind = %v, want upper-bound (single congested train)", est.Kind)
	}
	lat, ok := m.Latency("b")
	if !ok || lat != 0.5 {
		t.Fatalf("latency = %v ok=%v, want 0.5 ms (rtt 1 ms)", lat, ok)
	}
	if got := m.Remotes(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Remotes = %v", got)
	}
}

func TestMonitorTrainHookSeesResolvedTrains(t *testing.T) {
	m := NewMonitor("a", Config{})
	type tap struct {
		remote string
		obs    estimator.Observation
	}
	var taps []tap
	m.SetTrainHook(func(remote string, o estimator.Observation) {
		taps = append(taps, tap{remote, o})
	})
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*50*us })
	m.FeedAll(outs)
	m.FeedAll(acks)
	m.Feed(pcap.Record{At: outs[19].At + 200_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	if n := m.Poll(); n != 1 {
		t.Fatalf("Poll produced %d observations, want 1", n)
	}
	if len(taps) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(taps))
	}
	got := taps[0]
	if got.remote != "b" || got.obs.Ambiguous || !got.obs.Congested {
		t.Fatalf("tap = %+v", got)
	}
	if len(got.obs.RTTs) != 20 || len(got.obs.Departures) != 20 {
		t.Fatalf("hook saw %d rtts and %d departures, want 20 (one per packet)",
			len(got.obs.RTTs), len(got.obs.Departures))
	}
	// Removing the hook stops the tap.
	m.SetTrainHook(nil)
	outs2 := mkOuts(1_000_000_000, 20, 100*us, 1500, 0)
	m.FeedAll(outs2)
	m.FeedAll(mkAcks(outs2, func(i int) int64 { return 1000 * us }))
	m.Feed(pcap.Record{At: outs2[19].At + 200_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	m.Poll()
	if len(taps) != 1 {
		t.Fatalf("hook fired after removal: %d taps", len(taps))
	}
}

func TestMonitorDefersUntilAcksArrive(t *testing.T) {
	m := NewMonitor("a", Config{})
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	m.FeedAll(outs)
	// Advance the clock via an unrelated record so the train closes, but
	// without its ACKs the analysis must wait.
	m.Feed(pcap.Record{At: outs[9].At + 100_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	if n := m.Poll(); n != 0 {
		t.Fatalf("Poll without acks produced %d", n)
	}
	if _, ok := m.AvailableBandwidth("b"); ok {
		t.Fatal("estimate without acks")
	}
	// ACKs arrive (flat RTTs): next poll emits the observation.
	m.FeedAll(mkAcks(outs, func(i int) int64 { return 100_500_000 }))
	if n := m.Poll(); n != 1 {
		t.Fatalf("Poll with acks produced %d", n)
	}
	est, ok := m.AvailableBandwidth("b")
	if !ok || est.Kind != estimator.LowerBound {
		t.Fatalf("est = %+v ok=%v", est, ok)
	}
}

func TestMonitorAbandonsStaleTrains(t *testing.T) {
	m := NewMonitor("a", Config{DeferLimit: 1_000_000}) // 1 ms
	outs := mkOuts(0, 10, 100*us, 1500, 0)
	m.FeedAll(outs)
	// Far-future heartbeat: the train is long past the defer limit and its
	// ACKs never came; it must be dropped, freeing the pending buffers.
	m.Feed(pcap.Record{At: outs[9].At + 10_000_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	if n := m.Poll(); n != 0 {
		t.Fatalf("Poll produced %d", n)
	}
	sh := m.shardFor("b")
	sh.mu.Lock()
	fs := sh.flows[pcap.FlowKey{Local: "a", Remote: "b"}]
	pending := 0
	if fs != nil {
		pending = len(fs.outs)
	}
	sh.mu.Unlock()
	if pending != 0 {
		t.Fatalf("stale train still pending: %d records", pending)
	}
}

func TestMonitorObservationsSince(t *testing.T) {
	m := NewMonitor("a", Config{})
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	m.FeedAll(outs)
	m.FeedAll(mkAcks(outs, func(i int) int64 { return 1000 * us }))
	m.Feed(pcap.Record{At: outs[19].At + 100_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	m.Poll()
	all := m.Observations("b", 0)
	if len(all) != 1 {
		t.Fatalf("observations = %d", len(all))
	}
	if got := m.Observations("b", all[0].At); len(got) != 0 {
		t.Fatalf("since filter returned %d", len(got))
	}
	if got := m.Observations("nope", 0); got != nil {
		t.Fatalf("unknown remote returned %v", got)
	}
}

// TestMonitorScanKeepsLastObservationTime: a path that stops receiving
// trains keeps reporting the time it was last measured, however often it
// is scanned and however far the monitor's clock moves on — the age a
// consumer derives from it must grow, not reset.
func TestMonitorScanKeepsLastObservationTime(t *testing.T) {
	m := NewMonitor("a", Config{})
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	m.FeedAll(outs)
	m.FeedAll(mkAcks(outs, func(i int) int64 { return 1000 * us }))
	heartbeat := func(at int64) {
		m.Feed(pcap.Record{At: at, Dir: pcap.In, IsAck: true,
			Flow: pcap.FlowKey{Local: "a", Remote: "c"}})
		m.Poll()
	}
	heartbeat(outs[19].At + 100_000_000)
	first := m.Scan()
	if len(first) != 1 || first[0].Remote != "b" || first[0].At <= 0 || first[0].Estimate.Count != 1 {
		t.Fatalf("Scan = %+v, want one measured row for b", first)
	}
	if first[0].At != m.Observations("b", 0)[0].At {
		t.Fatalf("Scan At = %d, want the observation's %d", first[0].At, m.Observations("b", 0)[0].At)
	}
	// An hour of traffic elsewhere, none toward b.
	for i := int64(1); i <= 6; i++ {
		heartbeat(outs[19].At + i*600_000_000_000)
		if again := m.Scan(); len(again) != 1 || again[0] != first[0] {
			t.Fatalf("scan %d of a silent path = %+v, want the unchanged %+v", i, again, first[0])
		}
	}
	if rec := first[0].Record(); rec.At != first[0].At || rec.Path.From != "a" || rec.Path.To != "b" ||
		rec.Mbps != first[0].Estimate.Mbps || rec.LatencyMs != first[0].LatencyMs {
		t.Fatalf("Record() = %+v, does not carry the row %+v", rec, first[0])
	}
}

func TestMonitorStatsAndFilters(t *testing.T) {
	m := NewMonitor("a", Config{})
	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	m.Feed(pcap.Record{At: 1, Dir: pcap.Out, Flow: flow, Size: 1500, Len: 1460})
	m.Feed(pcap.Record{At: 2, Dir: pcap.In, Flow: flow, IsAck: true, Ack: 10})
	m.Feed(pcap.Record{At: 3, Dir: pcap.In, Flow: flow, Size: 1500})   // incoming data: ignored
	m.Feed(pcap.Record{At: 4, Dir: pcap.Out, Flow: flow, IsAck: true}) // outgoing ack: ignored
	st := m.Stats()
	if st.OutRecords != 1 || st.AckRecords != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// lanEqualAccess builds the Figure 2 style testbed: access links at the
// same 100 Mbit/s rate as the bottleneck (2006-era fast Ethernet NICs), so
// application bursts probe at most the path capacity.
func lanEqualAccess() (*simnet.Sim, *simnet.Dumbbell) {
	s := simnet.NewSim()
	d := simnet.NewDumbbell(s, 2, 2, simnet.DumbbellConfig{
		AccessMbps:           100,
		AccessDelay:          simnet.Milliseconds(0.05),
		BottleneckMbps:       100,
		BottleneckDelay:      simnet.Milliseconds(0.2),
		BottleneckQueueBytes: 64 * 1000,
	})
	return s, d
}

// runWrenScenario drives the monitored application against cross traffic
// and returns Wren's final estimate toward the receiver.
func runWrenScenario(t *testing.T, crossMbps float64, seconds float64) estimator.Estimate {
	t.Helper()
	s, d := lanEqualAccess()
	if crossMbps > 0 {
		cross := tcpsim.NewCBR(d.Net, 99, d.Left[1], d.Right[1], 1500)
		cross.SetRateAt(0, crossMbps)
	}
	conn := tcpsim.NewConnection(d.Net, 1, d.Left[0], d.Right[0], tcpsim.Config{})
	// Paper-style workload: bursts of messages with inter-message spacing,
	// never saturating on its own for long.
	tcpsim.StartMessageApp(conn, []tcpsim.MessagePhase{
		{Count: 20, Size: 20 << 10, Spacing: simnet.Milliseconds(100)},
		{Count: 10, Size: 50 << 10, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
		{Count: 4, Size: 1 << 20, Spacing: simnet.Milliseconds(100), Pause: simnet.Seconds(2)},
	}, 0, -1, 7)

	m := NewMonitor(HostName(d.Left[0]), Config{})
	AttachSim(m, d.Net, d.Left[0])
	StartPolling(m, d.Net, simnet.Seconds(0.5))

	s.RunUntil(simnet.Time(simnet.Seconds(seconds)))
	est, ok := m.AvailableBandwidth(HostName(d.Right[0]))
	if !ok {
		t.Fatalf("no estimate produced (stats %+v)", m.Stats())
	}
	return est
}

// TestWrenMeasuresIdlePath is the ground-truth validation with no cross
// traffic: the full 100 Mbit/s is available, and the application itself is
// the only load.
func TestWrenMeasuresIdlePath(t *testing.T) {
	est := runWrenScenario(t, 0, 30)
	if est.Mbps < 70 || est.Mbps > 110 {
		t.Fatalf("idle-path estimate = %+v, want ~100 Mbit/s", est)
	}
}

// TestWrenMeasuresUnderCrossTraffic: with 40 Mbit/s CBR cross traffic the
// available bandwidth is 60 Mbit/s; Wren must land in that neighborhood
// while the monitored app's own throughput stays far below it.
func TestWrenMeasuresUnderCrossTraffic(t *testing.T) {
	est := runWrenScenario(t, 40, 30)
	if est.Mbps < 40 || est.Mbps > 80 {
		t.Fatalf("estimate under 40M cross = %+v, want ~60 Mbit/s", est)
	}
}

// TestWrenMeasuresHeavyCongestion: 70 Mbit/s of cross traffic leaves 30.
func TestWrenMeasuresHeavyCongestion(t *testing.T) {
	est := runWrenScenario(t, 70, 30)
	if est.Mbps < 15 || est.Mbps > 50 {
		t.Fatalf("estimate under 70M cross = %+v, want ~30 Mbit/s", est)
	}
}

// TestWrenLatencyOnSimPath: base RTT on the dumbbell is ~0.6 ms, so the
// one-way latency estimate should be ~0.3 ms.
func TestWrenLatencyOnSimPath(t *testing.T) {
	s, d := lanEqualAccess()
	conn := tcpsim.NewConnection(d.Net, 1, d.Left[0], d.Right[0], tcpsim.Config{})
	tcpsim.StartMessageApp(conn, []tcpsim.MessagePhase{
		{Count: 50, Size: 30 << 10, Spacing: simnet.Milliseconds(200)},
	}, 0, 1, 3)
	m := NewMonitor(HostName(d.Left[0]), Config{})
	AttachSim(m, d.Net, d.Left[0])
	StartPolling(m, d.Net, simnet.Seconds(0.5))
	s.RunUntil(simnet.Time(simnet.Seconds(15)))
	lat, ok := m.Latency(HostName(d.Right[0]))
	if !ok {
		t.Fatal("no latency estimate")
	}
	if lat < 0.2 || lat > 1.5 {
		t.Fatalf("latency = %v ms, want ~0.3-0.6", lat)
	}
}
