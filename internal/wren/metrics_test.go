package wren

import (
	"strings"
	"testing"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
)

func TestMonitorMetricsCountPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor("a", Config{})
	m.SetMetrics(NewMonitorMetrics(reg))

	outs := mkOuts(0, 20, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*50*us })
	m.FeedAll(outs)
	m.FeedAll(acks)
	m.Feed(pcap.Record{At: outs[19].At + 200_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "c"}, Ack: 0})
	if n := m.Poll(); n != 1 {
		t.Fatalf("Poll produced %d observations, want 1", n)
	}

	out := reg.String()
	for _, line := range []string{
		"wren_records_fed_total 41", // 20 outs + 20 acks + 1 heartbeat
		"wren_trains_formed_total 1",
		"wren_sic_increasing_total 1", // growing per-packet RTTs: congested
		"wren_sic_nonincreasing_total 0",
		"wren_estimates_published_total 1",
		"wren_poll_duration_seconds_count 1",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("metrics missing %q:\n%s", line, out)
		}
	}
}

func TestRepositoryMetricsPropagateToMonitors(t *testing.T) {
	reg := obs.NewRegistry()
	repo := NewRepository(Config{})
	repo.SetMetrics(NewRepositoryMetrics(reg))
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	fw, err := DialRepository(addr, "origin1", 4)
	if err != nil {
		t.Fatal(err)
	}
	outs := mkOuts(0, 8, 100*us, 1500, 0)
	fw.FeedAll(outs)
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fw.Close()

	// Wait until the repository has decoded the shipped batches.
	for i := 0; i < 200; i++ {
		if _, records := repo.Received(); records == 8 {
			break
		}
		if i == 199 {
			t.Fatal("repository never received the batch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	out := reg.String()
	if !strings.Contains(out, "wren_repo_records_total 8") {
		t.Fatalf("repo record counter missing:\n%s", out)
	}
	// The lazily created per-origin monitor must share the registry.
	if !strings.Contains(out, "wren_records_fed_total 8") {
		t.Fatalf("per-origin monitor not instrumented:\n%s", out)
	}
}

// BenchmarkMonitorFeed measures the seed ingest path with no metrics
// attached — the baseline for the instrumented variants below.
func BenchmarkMonitorFeed(b *testing.B) {
	benchmarkFeed(b, func(m *Monitor) {})
}

// BenchmarkMonitorFeedInstrumented measures Feed with the instrumentation
// fields present but no registry attached (the zero-value MonitorMetrics):
// the cost of the always-taken nil checks, which must stay within a couple
// of nanoseconds of BenchmarkMonitorFeed.
func BenchmarkMonitorFeedInstrumented(b *testing.B) {
	benchmarkFeed(b, func(m *Monitor) { m.SetMetrics(MonitorMetrics{}) })
}

// BenchmarkMonitorFeedWithRegistry measures Feed with live collectors —
// the cost an operator pays for turning -metrics-addr on.
func BenchmarkMonitorFeedWithRegistry(b *testing.B) {
	benchmarkFeed(b, func(m *Monitor) { m.SetMetrics(NewMonitorMetrics(obs.NewRegistry())) })
}

func benchmarkFeed(b *testing.B, setup func(*Monitor)) {
	m := NewMonitor("a", Config{})
	setup(m)
	r := pcap.Record{At: 1, Dir: pcap.Out,
		Flow: pcap.FlowKey{Local: "a", Remote: "b"}, Size: 1500, Len: 1460}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.At += 100 * us
		r.Seq += 1460
		m.Feed(r)
		sh := m.shardFor(r.Flow.Remote)
		if len(sh.flows[r.Flow].outs) >= m.cfg.MaxPending {
			b.StopTimer()
			sh.flows[r.Flow].outs = sh.flows[r.Flow].outs[:0]
			b.StartTimer()
		}
	}
}
