package tcpsim

import (
	"testing"

	"freemeasure/internal/simnet"
)

func TestCBRRateAccuracy(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(1))
	c := NewCBR(n, 5, a, b, 1500)
	c.SetRateAt(0, 40)
	s.RunUntil(simnet.Time(simnet.Seconds(2)))
	// 40 Mbit/s for 2 s = 10 MB = ~6666 packets of 1500 B.
	wantPkts := 40e6 * 2 / 8 / 1500
	got := float64(c.Sent)
	if got < wantPkts*0.98 || got > wantPkts*1.02 {
		t.Fatalf("CBR sent %v packets, want ~%v", got, wantPkts)
	}
	if c.Received == 0 || float64(c.Received) < got*0.95 {
		t.Fatalf("CBR received %d of %d", c.Received, c.Sent)
	}
}

func TestCBRRateSteps(t *testing.T) {
	s, n, a, b := lanPair(100, 0)
	c := NewCBR(n, 5, a, b, 1500)
	c.SetRateAt(0, 10)
	c.SetRateAt(simnet.Time(simnet.Seconds(1)), 0) // stop
	c.SetRateAt(simnet.Time(simnet.Seconds(2)), 20)
	s.RunUntil(simnet.Time(simnet.Seconds(3)))
	if c.rateMbps != 20 {
		t.Fatalf("RateMbps = %v", c.rateMbps)
	}
	// 10 Mbit/s for 1 s + 20 Mbit/s for 1 s = 30 Mbit total = 2500 packets.
	want := 30e6 / 8 / 1500
	got := float64(c.Sent)
	if got < want*0.97 || got > want*1.03 {
		t.Fatalf("CBR sent %v packets across rate steps, want ~%v", got, want)
	}
}

func TestCBRDefaultPacketSize(t *testing.T) {
	_, n, a, b := lanPair(100, 0)
	c := NewCBR(n, 5, a, b, 0)
	if c.pktSize != 1500 {
		t.Fatalf("default pktSize = %d", c.pktSize)
	}
}

func TestMessageAppRunsPhases(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(1))
	c := NewConnection(n, 1, a, b, Config{})
	phases := []MessagePhase{
		{Count: 5, Size: 2000, Spacing: simnet.Milliseconds(10), Pause: simnet.Milliseconds(100)},
		{Count: 3, Size: 50000, Spacing: simnet.Milliseconds(10)},
	}
	app := StartMessageApp(c, phases, 0, 1, 42)
	s.RunUntil(simnet.Time(simnet.Seconds(5)))
	if !app.Done() {
		t.Fatal("app not done")
	}
	want := int64(5*2000 + 3*50000)
	if c.BytesAcked() != want {
		t.Fatalf("BytesAcked = %d, want %d", c.BytesAcked(), want)
	}
}

func TestMessageAppLoops(t *testing.T) {
	s, n, a, b := lanPair(100, simnet.Milliseconds(1))
	c := NewConnection(n, 1, a, b, Config{})
	phases := []MessagePhase{{Count: 2, Size: 1000, Spacing: simnet.Milliseconds(5)}}
	app := StartMessageApp(c, phases, 0, 3, 1)
	s.RunUntil(simnet.Time(simnet.Seconds(5)))
	if !app.Done() {
		t.Fatal("app not done after loops")
	}
	if got := c.BytesAcked(); got != 6000 {
		t.Fatalf("BytesAcked = %d, want 6000 (3 loops x 2 x 1000)", got)
	}
}

func TestMessageAppJitterDeterministic(t *testing.T) {
	run := func() int64 {
		s, n, a, b := lanPair(100, simnet.Milliseconds(1))
		c := NewConnection(n, 1, a, b, Config{})
		phases := []MessagePhase{{Count: 50, Size: 500,
			Spacing: simnet.Milliseconds(1), SpacingJitter: simnet.Milliseconds(5)}}
		StartMessageApp(c, phases, 0, 1, 7)
		s.RunUntil(simnet.Time(simnet.Seconds(2)))
		return int64(s.EventsFired())
	}
	if run() != run() {
		t.Fatal("jittered app not deterministic for fixed seed")
	}
}

func TestOnOffTCPGeneratesBurstyTraffic(t *testing.T) {
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, 50, simnet.Milliseconds(10), 128*1000)
	c := NewConnection(n, 9, a, b, Config{})
	StartOnOffTCP(c, simnet.Seconds(0.5), simnet.Seconds(0.5), 0, 3)
	s.RunUntil(simnet.Time(simnet.Seconds(10)))
	if c.BytesAcked() == 0 {
		t.Fatal("on/off source sent nothing")
	}
	// Average rate must be well below line rate (it is off ~half the time)
	// but clearly nonzero.
	mbps := float64(c.BytesAcked()) * 8 / 10 / 1e6
	if mbps <= 1 || mbps >= 50 {
		t.Fatalf("on/off average rate = %.1f Mbit/s, want bursty mid-range", mbps)
	}
}

func TestOnOffTCPStartsOff(t *testing.T) {
	s := simnet.NewSim()
	n, a, b := simnet.NewPair(s, 50, simnet.Milliseconds(1), 0)
	c := NewConnection(n, 9, a, b, Config{})
	o := StartOnOffTCP(c, simnet.Seconds(1), simnet.Seconds(1), 0, 3)
	s.RunUntil(simnet.Time(simnet.Milliseconds(0.5)))
	if o.on {
		t.Fatal("source should begin OFF")
	}
}
