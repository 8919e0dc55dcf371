package tcpsim

import (
	"strings"
	"testing"

	"freemeasure/internal/simnet"
)

// These tests pin down the loss-recovery machinery specifically: go-back-N
// after an RTO, out-of-order reassembly under resegmentation, and the
// determinism of the jittered ACK path.

func TestGoBackNRecoversMultiSegmentLoss(t *testing.T) {
	// A tiny bottleneck queue drops large parts of the initial window; the
	// connection must still complete promptly (well under one RTO per
	// segment, which is what a broken go-back-N degenerates to).
	s := simnet.NewSim()
	n := simnet.NewNetwork(s, 2)
	n.AddLink(0, 1, 10, simnet.Milliseconds(2), 4*1500) // 4-packet queue
	n.AddLink(1, 0, 10, simnet.Milliseconds(2), 1<<20)
	c := NewConnection(n, 1, 0, 1, Config{})
	const total = 512 << 10
	c.Write(total)
	for c.BytesAcked() < total {
		if !s.Step() {
			break
		}
		if s.Now() > simnet.Time(simnet.Seconds(60)) {
			break
		}
	}
	if c.BytesAcked() != total {
		t.Fatalf("acked %d of %d (stats %+v, state %s)",
			c.BytesAcked(), total, c.stats, c.DebugState())
	}
	// 512 KB at 10 Mbit/s is ~0.42 s; allow generous recovery slack but
	// rule out the one-segment-per-RTO crawl (which would need ~70 s).
	if elapsed := s.Now().Sec(); elapsed > 5 {
		t.Fatalf("transfer took %.1f s — recovery is crawling (stats %+v)", elapsed, c.stats)
	}
}

func TestResegmentedRetransmissionsReassemble(t *testing.T) {
	// Force an RTO while more application data arrives, so retransmitted
	// segments are cut at different boundaries than the originals; the
	// receiver's overlap-tolerant reassembly must still deliver every byte
	// exactly once.
	s := simnet.NewSim()
	n := simnet.NewNetwork(s, 2)
	n.AddLink(0, 1, 10, simnet.Milliseconds(1), 3*1500)
	n.AddLink(1, 0, 10, simnet.Milliseconds(1), 1500) // lossy ack path too
	cross := NewCBR(n, 9, 1, 0, 1400)
	cross.SetRateAt(0, 9) // congests the ACK path
	c := NewConnection(n, 1, 0, 1, Config{})
	// Odd-sized writes so segment boundaries shift whenever appBytes grows.
	total := 0
	for i := 0; i < 60; i++ {
		size := 700 + 37*i
		at := simnet.Time(simnet.Seconds(float64(i) * 0.1))
		n.Schedule(at, func() { c.Write(size) })
		total += size
	}
	s.RunUntil(simnet.Time(simnet.Seconds(120)))
	if c.BytesAcked() != int64(total) {
		t.Fatalf("acked %d of %d (stats %+v, state %s)",
			c.BytesAcked(), total, c.stats, c.DebugState())
	}
	if c.rcvNxt != int64(total) {
		t.Fatalf("receiver rcvNxt %d != %d", c.rcvNxt, total)
	}
	if len(c.ooo) != 0 {
		t.Fatalf("receiver left %d stale out-of-order entries", len(c.ooo))
	}
}

func TestRetransmitsNotRTTSampled(t *testing.T) {
	// Karn's algorithm: with heavy loss, RTT samples must never come from
	// retransmitted segments, so SRTT stays near the true RTT rather than
	// absorbing RTO-length delays.
	s := simnet.NewSim()
	n := simnet.NewNetwork(s, 2)
	n.AddLink(0, 1, 10, simnet.Milliseconds(5), 4*1500)
	n.AddLink(1, 0, 10, simnet.Milliseconds(5), 1<<20)
	c := NewConnection(n, 1, 0, 1, Config{})
	c.Write(1 << 20)
	s.RunUntil(simnet.Time(simnet.Seconds(10)))
	if c.stats.Retransmits == 0 {
		t.Fatal("scenario produced no retransmits")
	}
	srttMs := c.srtt.Sec() * 1000
	if srttMs > 60 { // true RTT ~10-30 ms with queueing; RTO pollution would be >200
		t.Fatalf("SRTT = %.1f ms, poisoned by retransmission samples", srttMs)
	}
}

func TestAckJitterDeterministicPerSeed(t *testing.T) {
	// Fingerprint a run by the exact completion time: jitter shifts ACK
	// departures by random sub-30us amounts, so different seeds complete
	// at different instants while the same seed is exactly reproducible.
	run := func(seed int64) simnet.Time {
		s := simnet.NewSim()
		n, a, b := simnet.NewPair(s, 50, simnet.Milliseconds(2), 1<<20)
		c := NewConnection(n, 1, a, b, Config{JitterSeed: seed})
		const total = 256 << 10
		c.Write(total)
		for c.BytesAcked() < total && s.Step() {
		}
		return s.Now()
	}
	if run(7) != run(7) {
		t.Fatal("same seed diverged")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds completed at the identical instant (jitter inert)")
	}
}

func TestAckJitterDisabled(t *testing.T) {
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, 50, simnet.Milliseconds(2), 1<<20)
	c := NewConnection(n, 1, a, b, Config{AckJitter: -1})
	if c.cfg.AckJitter != 0 {
		t.Fatalf("AckJitter = %v, want disabled", c.cfg.AckJitter)
	}
	c.Write(64 << 10)
	s.RunUntil(simnet.Time(simnet.Seconds(2)))
	if c.BytesAcked() != 64<<10 {
		t.Fatal("transfer incomplete without jitter")
	}
}

func TestDebugStateContents(t *testing.T) {
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, 50, simnet.Milliseconds(2), 1<<20)
	c := NewConnection(n, 1, a, b, Config{})
	c.Write(10 << 10)
	s.RunUntil(simnet.Time(simnet.Seconds(1)))
	state := c.DebugState()
	for _, field := range []string{"cwnd=", "una=", "nxt=", "rto=", "stats="} {
		if !strings.Contains(state, field) {
			t.Fatalf("DebugState missing %q: %s", field, state)
		}
	}
}
