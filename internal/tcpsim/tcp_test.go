package tcpsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freemeasure/internal/simnet"
)

// lanPair builds a two-host duplex path with the given rate/delay and a
// generous queue.
func lanPair(rateMbps float64, delay simnet.Duration) (*simnet.Sim, *simnet.Network, simnet.HostID, simnet.HostID) {
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, rateMbps, delay, 1<<20)
	return s, n, a, b
}

func TestBulkTransferCompletes(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(1))
	c := NewConnection(n, 1, a, b, Config{})
	const total = 2 << 20
	c.Write(total)
	s.RunUntil(simnet.Time(simnet.Seconds(10)))
	if c.BytesAcked() != total {
		t.Fatalf("BytesAcked = %d, want %d", c.BytesAcked(), total)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after completion", c.Outstanding())
	}
}

func TestBulkThroughputNearLineRate(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(1))
	c := NewConnection(n, 1, a, b, Config{})
	const total = 8 << 20 // 8 MB
	c.Write(total)
	for s.Pending() > 0 && c.BytesAcked() < total {
		s.Step()
	}
	elapsed := s.Now().Sec()
	mbps := float64(total) * 8 / elapsed / 1e6
	// Goodput should be within 25% of the 100 Mbit/s line rate (headers and
	// slow start cost some).
	if mbps < 75 || mbps > 101 {
		t.Fatalf("goodput = %.1f Mbit/s, want ~100", mbps)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	s, n, a, b := lanPair(1000, simnet.Milliseconds(10))
	c := NewConnection(n, 1, a, b, Config{})
	c.Write(1 << 20)
	// After one RTT (~20ms) the initial window's ACKs should have grown
	// cwnd from 2 toward 4; after two RTTs toward 8.
	s.RunUntil(simnet.Time(simnet.Milliseconds(25)))
	if c.cwnd < 3.5 {
		t.Fatalf("cwnd after 1 RTT = %v, want >= ~4", c.cwnd)
	}
	s.RunUntil(simnet.Time(simnet.Milliseconds(45)))
	if c.cwnd < 7 {
		t.Fatalf("cwnd after 2 RTT = %v, want >= ~8", c.cwnd)
	}
}

func TestRTTEstimate(t *testing.T) {
	s, n, a, b := lanPair(1000, simnet.Milliseconds(20))
	c := NewConnection(n, 1, a, b, Config{})
	c.Write(100 << 10)
	s.RunUntil(simnet.Time(simnet.Seconds(2)))
	rtt := c.srtt.Sec() * 1000
	if rtt < 39 || rtt > 60 {
		t.Fatalf("SRTT = %.2f ms, want ~40 ms", rtt)
	}
	if c.stats.RTTSamples == 0 {
		t.Fatal("no RTT samples")
	}
}

func TestLossRecoveryFastRetransmit(t *testing.T) {
	// Shallow bottleneck queue forces drops once cwnd exceeds the BDP.
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, 10, simnet.Milliseconds(5), 8*1500)
	c := NewConnection(n, 1, a, b, Config{})
	const total = 4 << 20
	c.Write(total)
	s.RunUntil(simnet.Time(simnet.Seconds(30)))
	if c.BytesAcked() != total {
		t.Fatalf("BytesAcked = %d, want %d (stats %+v)", c.BytesAcked(), total, c.stats)
	}
	st := c.stats
	if st.Retransmits == 0 {
		t.Fatalf("expected retransmissions on shallow queue, stats %+v", st)
	}
	if st.FastRetransmit == 0 {
		t.Fatalf("expected fast retransmits, stats %+v", st)
	}
}

func TestTimeoutOnDeadACKPath(t *testing.T) {
	// Congest the reverse path so badly that ACKs are mostly dropped: the
	// sender must fall back to RTO-based recovery.
	s := simnet.NewSim()
	n := simnet.NewNetwork(s, 2)
	n.AddLink(0, 1, 10, simnet.Milliseconds(1), 1<<20)
	n.AddLink(1, 0, 10, simnet.Milliseconds(1), 1500) // 1-packet reverse queue
	cross := NewCBR(n, 99, 1, 0, 1500)
	cross.SetRateAt(0, 20) // 2x the reverse link rate: queue always full
	c := NewConnection(n, 1, 0, 1, Config{})
	c.Write(64 << 10)
	s.RunUntil(simnet.Time(simnet.Seconds(20)))
	if c.stats.Timeouts == 0 {
		t.Fatalf("expected RTO timeouts under ACK starvation, stats %+v", c.stats)
	}
}

func TestIdleResetDecaysWindow(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(5))
	c := NewConnection(n, 1, a, b, Config{})
	c.Write(1 << 20)
	s.RunUntil(simnet.Time(simnet.Seconds(2)))
	grown := c.cwnd
	if grown < 8 {
		t.Fatalf("cwnd did not grow: %v", grown)
	}
	// Idle for many RTOs, then write again: window must have decayed and
	// ssthresh must remember the old operating point.
	s.RunUntil(simnet.Time(simnet.Seconds(10)))
	c.Write(1000)
	if c.cwnd >= grown {
		t.Fatalf("cwnd after idle = %v, want < %v", c.cwnd, grown)
	}
	if c.ssthresh < grown {
		t.Fatalf("ssthresh = %v, want >= %v (remember old rate)", c.ssthresh, grown)
	}
}

func TestNoIdleReset(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(5))
	c := NewConnection(n, 1, a, b, Config{NoIdleReset: true})
	c.Write(1 << 20)
	s.RunUntil(simnet.Time(simnet.Seconds(2)))
	grown := c.cwnd
	s.RunUntil(simnet.Time(simnet.Seconds(10)))
	c.Write(1000)
	if c.cwnd != grown {
		t.Fatalf("cwnd changed across idle with NoIdleReset: %v -> %v", grown, c.cwnd)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	s := simnet.NewSim()
	d := simnet.NewDumbbell(s, 2, 2, simnet.DumbbellConfig{
		AccessMbps: 1000, AccessDelay: simnet.Milliseconds(0.1),
		BottleneckMbps: 50, BottleneckDelay: simnet.Milliseconds(5),
		BottleneckQueueBytes: 64 * 1000,
	})
	c1 := NewConnection(d.Net, 1, d.Left[0], d.Right[0], Config{})
	c2 := NewConnection(d.Net, 2, d.Left[1], d.Right[1], Config{})
	const total = 16 << 20
	c1.Write(total)
	c2.Write(total)
	s.RunUntil(simnet.Time(simnet.Seconds(3)))
	a1, a2 := float64(c1.BytesAcked()), float64(c2.BytesAcked())
	if a1 == 0 || a2 == 0 {
		t.Fatal("a flow was starved")
	}
	ratio := a1 / a2
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair sharing: %.0f vs %.0f bytes (ratio %.2f)", a1, a2, ratio)
	}
	sum := (a1 + a2) * 8 / 3 / 1e6
	if sum < 35 || sum > 51 {
		t.Fatalf("aggregate goodput = %.1f Mbit/s, want ~45-50", sum)
	}
}

func TestWriteValidation(t *testing.T) {
	_, n, a, b := lanPair(10, 0)
	c := NewConnection(n, 1, a, b, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Write(0)")
		}
	}()
	c.Write(0)
}

func TestConnString(t *testing.T) {
	_, n, a, b := lanPair(10, 0)
	c := NewConnection(n, 1, a, b, Config{})
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestAllWritesEventuallyAcked is the transport conservation property: on a
// lossless path, every written byte is acknowledged exactly once, for
// arbitrary write patterns.
func TestAllWritesEventuallyAcked(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, n, a, b := lanPair(50, simnet.Milliseconds(2))
		c := NewConnection(n, 1, a, b, Config{})
		total := 0
		writes := 1 + rng.Intn(20)
		for i := 0; i < writes; i++ {
			size := 1 + rng.Intn(100000)
			at := simnet.Time(rng.Int63n(int64(simnet.Seconds(2))))
			n.Schedule(at, func() { c.Write(size) })
			total += size
		}
		s.RunUntil(simnet.Time(simnet.Seconds(60)))
		return c.BytesAcked() == int64(total) && c.Outstanding() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
