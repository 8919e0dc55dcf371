package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// deliverTimes runs one packet over a pair topology and returns send/arrive
// times.
func sendOne(t *testing.T, rateMbps float64, delay Duration, size int) (Time, Time) {
	t.Helper()
	s := NewSim()
	n, a, b := NewPair(s, rateMbps, delay, 0)
	var arrived Time
	n.Host(b).Register(1, func(pkt *Packet, at Time) { arrived = at })
	n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: size})
	for s.Step() {
	}
	return 0, arrived
}

func TestLinkLatencyModel(t *testing.T) {
	// 1500 bytes at 12 Mbit/s = 1 ms serialization, plus 5 ms propagation.
	_, arrived := sendOne(t, 12, Milliseconds(5), 1500)
	want := Milliseconds(6)
	if got := arrived.Sub(0); got != Duration(want) {
		t.Fatalf("one-way time = %v, want %v", got, want)
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	s := NewSim()
	n, a, b := NewPair(s, 12, 0, 1<<20)
	var arrivals []Time
	n.Host(b).Register(1, func(pkt *Packet, at Time) { arrivals = append(arrivals, at) })
	// Three back-to-back 1500 B packets at 12 Mbit/s serialize at 1 ms each.
	for i := 0; i < 3; i++ {
		n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1500})
	}
	for s.Step() {
	}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	for i, want := range []Duration{Milliseconds(1), Milliseconds(2), Milliseconds(3)} {
		if arrivals[i] != Time(want) {
			t.Fatalf("arrival[%d] = %v, want %v", i, arrivals[i], want)
		}
	}
}

func TestDroptail(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, 2)
	// Queue bound fits exactly one queued packet of 1000 B.
	link := n.AddLink(0, 1, 8, 0, 1000)
	delivered := 0
	n.Host(1).Register(1, func(pkt *Packet, at Time) { delivered++ })
	// First transmits immediately, second queues, third and fourth drop.
	for i := 0; i < 4; i++ {
		n.Send(&Packet{Flow: 1, Src: 0, Dst: 1, Size: 1000})
	}
	for s.Step() {
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	st := link.Stats()
	if st.Dropped != 2 || st.Delivered != 2 || st.Enqueued != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxQueue != 1000 {
		t.Fatalf("MaxQueue = %d", st.MaxQueue)
	}
}

func TestSetRateMidRun(t *testing.T) {
	s := NewSim()
	n, a, b := NewPair(s, 8, 0, 1<<20)
	var arrivals []Time
	n.Host(b).Register(1, func(pkt *Packet, at Time) { arrivals = append(arrivals, at) })
	n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1000}) // 1 ms at 8 Mbit/s
	s.Schedule(Time(Milliseconds(1)), func() {
		n.Link(a, b).SetRate(80) // second packet serializes 10x faster
		n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1000})
	})
	for s.Step() {
	}
	if arrivals[0] != Time(Milliseconds(1)) {
		t.Fatalf("first arrival %v", arrivals[0])
	}
	if arrivals[1] != Time(Milliseconds(1.1)) {
		t.Fatalf("second arrival %v, want 1.1ms", arrivals[1])
	}
}

func TestMultiHopForwarding(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, 3)
	n.AddDuplexLink(0, 1, 100, Milliseconds(1), 0)
	n.AddDuplexLink(1, 2, 100, Milliseconds(1), 0)
	got := false
	n.Host(2).Register(7, func(pkt *Packet, at Time) {
		got = true
		if pkt.Src != 0 {
			t.Errorf("src = %d", pkt.Src)
		}
	})
	if hop := n.NextHop(0, 2); hop != 1 {
		t.Fatalf("NextHop(0,2) = %d", hop)
	}
	n.Send(&Packet{Flow: 7, Src: 0, Dst: 2, Size: 100})
	for s.Step() {
	}
	if !got {
		t.Fatal("packet not delivered across two hops")
	}
}

func TestNoRoutePanics(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unroutable destination")
		}
	}()
	n.Send(&Packet{Flow: 1, Src: 0, Dst: 1, Size: 100})
}

func TestUnroutedCounter(t *testing.T) {
	s := NewSim()
	n, a, b := NewPair(s, 100, 0, 0)
	n.Send(&Packet{Flow: 99, Src: a, Dst: b, Size: 100})
	for s.Step() {
	}
	if n.Host(b).Unrouted != 1 {
		t.Fatalf("Unrouted = %d", n.Host(b).Unrouted)
	}
}

func TestCaptureHookTimestamps(t *testing.T) {
	s := NewSim()
	n, a, b := NewPair(s, 8, Milliseconds(5), 1<<20)
	type capture struct {
		dir Direction
		at  Time
	}
	var atA, atB []capture
	n.Host(a).AddCapture(func(pkt *Packet, at Time, dir Direction) {
		atA = append(atA, capture{dir, at})
	})
	n.Host(b).AddCapture(func(pkt *Packet, at Time, dir Direction) {
		atB = append(atB, capture{dir, at})
	})
	n.Host(b).Register(1, func(pkt *Packet, at Time) {})
	// Two back-to-back packets: out-captures at serialization start (0 ms
	// and 1 ms), in-captures at arrival (6 ms and 7 ms).
	n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1000})
	n.Send(&Packet{Flow: 1, Src: a, Dst: b, Size: 1000})
	for s.Step() {
	}
	if len(atA) != 2 || len(atB) != 2 {
		t.Fatalf("captures: a=%d b=%d", len(atA), len(atB))
	}
	if atA[0] != (capture{Out, 0}) || atA[1] != (capture{Out, Time(Milliseconds(1))}) {
		t.Fatalf("out captures = %v", atA)
	}
	if atB[0] != (capture{In, Time(Milliseconds(6))}) || atB[1] != (capture{In, Time(Milliseconds(7))}) {
		t.Fatalf("in captures = %v", atB)
	}
}

func TestRoutersDoNotFireEndpointCaptures(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, 3)
	n.AddDuplexLink(0, 1, 100, 0, 0)
	n.AddDuplexLink(1, 2, 100, 0, 0)
	inAtRouter := 0
	n.Host(1).AddCapture(func(pkt *Packet, at Time, dir Direction) {
		if dir == In {
			inAtRouter++
		}
	})
	n.Host(2).Register(1, func(pkt *Packet, at Time) {})
	n.Send(&Packet{Flow: 1, Src: 0, Dst: 2, Size: 100})
	for s.Step() {
	}
	if inAtRouter != 0 {
		t.Fatalf("router fired %d In captures for transit packet", inAtRouter)
	}
}

// lanDumbbell is gigabit access in front of a 100 Mbit/s switched LAN
// path with sub-millisecond latency.
var lanDumbbell = DumbbellConfig{
	AccessMbps:      1000,
	AccessDelay:     Milliseconds(0.05),
	BottleneckMbps:  100,
	BottleneckDelay: Milliseconds(0.2),
}

func TestDumbbellTopology(t *testing.T) {
	s := NewSim()
	d := NewDumbbell(s, 2, 2, lanDumbbell)
	if len(d.Net.hosts) != 6 {
		t.Fatalf("hosts = %d", len(d.Net.hosts))
	}
	delivered := 0
	d.Net.Host(d.Right[1]).Register(1, func(pkt *Packet, at Time) { delivered++ })
	d.Net.Send(&Packet{Flow: 1, Src: d.Left[0], Dst: d.Right[1], Size: 1500})
	for s.Step() {
	}
	if delivered != 1 {
		t.Fatal("dumbbell did not deliver across bottleneck")
	}
	if d.Forward.Stats().Delivered != 1 {
		t.Fatalf("bottleneck stats = %+v", d.Forward.Stats())
	}
}

func TestParkingLotTopology(t *testing.T) {
	s := NewSim()
	p := NewParkingLot(s, ParkingLotConfig{
		AccessMbps:  1000,
		AccessDelay: Milliseconds(0.05),
		HopMbps:     []float64{100, 80},
		HopDelay:    Milliseconds(0.2),
	})
	// 3 endpoints + 3 routers + 2 cross pairs.
	if len(p.Net.hosts) != 10 {
		t.Fatalf("hosts = %d", len(p.Net.hosts))
	}
	if len(p.Hops) != 2 || len(p.CrossSrc) != 2 {
		t.Fatalf("hops = %d, cross pairs = %d", len(p.Hops), len(p.CrossSrc))
	}
	// The end-to-end path must traverse every hop; each cross flow exactly
	// its own.
	done := 0
	p.Net.Host(p.Dst).Register(1, func(pkt *Packet, at Time) { done++ })
	p.Net.Host(p.Sink).Register(2, func(pkt *Packet, at Time) { done++ })
	p.Net.Send(&Packet{Flow: 1, Src: p.Src, Dst: p.Dst, Size: 1500})
	p.Net.Send(&Packet{Flow: 2, Src: p.Src, Dst: p.Sink, Size: 1500})
	for i := range p.Hops {
		p.Net.Host(p.CrossDst[i]).Register(3, func(pkt *Packet, at Time) { done++ })
		p.Net.Send(&Packet{Flow: 3, Src: p.CrossSrc[i], Dst: p.CrossDst[i], Size: 1500})
	}
	for s.Step() {
	}
	if done != 4 {
		t.Fatalf("delivered %d of 4", done)
	}
	// Src->Dst and Src->Sink each crossed both hops; cross flow i crossed
	// only hop i, so hop 0 saw 3 packets and hop 1 saw 3.
	for i, hop := range p.Hops {
		if got := hop.Stats().Delivered; got != 3 {
			t.Fatalf("hop %d delivered %d packets, want 3", i, got)
		}
	}
}

func TestLinkValidation(t *testing.T) {
	s := NewSim()
	n := NewNetwork(s, 2)
	for _, fn := range []func(){
		func() { n.AddLink(0, 0, 10, 0, 0) },
		func() { n.AddLink(0, 1, 0, 0, 0) },
		func() { n.AddLink(0, 1, 10, 0, 0).SetRate(-1) },
		func() { n.Host(5) },
		func() { n.Send(&Packet{Src: 0, Dst: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestConservationProperty: after the network quiesces, every injected
// packet is accounted for: end-to-end delivered + unrouted + per-link drops
// equals the number sent.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		nHosts := 3 + rng.Intn(4)
		n := NewNetwork(s, nHosts)
		// Random connected-ish topology: chain plus random extra links.
		for i := 0; i+1 < nHosts; i++ {
			n.AddDuplexLink(HostID(i), HostID(i+1), 1+rng.Float64()*10, Duration(rng.Intn(1000000)), 3000)
		}
		for i := 0; i < nHosts; i++ {
			for j := 0; j < nHosts; j++ {
				if i != j && rng.Float64() < 0.2 && n.Link(HostID(i), HostID(j)) == nil {
					n.AddLink(HostID(i), HostID(j), 1+rng.Float64()*10, Duration(rng.Intn(1000000)), 3000)
				}
			}
		}
		delivered := uint64(0)
		for i := 0; i < nHosts; i++ {
			for f := FlowID(0); f < 4; f++ {
				n.Host(HostID(i)).Register(f, func(pkt *Packet, at Time) { delivered++ })
			}
		}
		sent := 0
		for k := 0; k < 50; k++ {
			src := HostID(rng.Intn(nHosts))
			dst := HostID(rng.Intn(nHosts))
			if src == dst {
				continue
			}
			at := Time(rng.Intn(int(Seconds(0.5))))
			n.Schedule(at, func() {
				n.Send(&Packet{Flow: FlowID(rng.Intn(4)), Src: src, Dst: dst, Size: 200 + rng.Intn(1300)})
			})
			sent++
		}
		for s.Step() {
		}
		var drops, unrouted uint64
		for _, l := range n.links {
			drops += l.Stats().Dropped
		}
		for i := 0; i < nHosts; i++ {
			unrouted += n.Host(HostID(i)).Unrouted
		}
		return delivered+drops+unrouted == uint64(sent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []Time {
		s := NewSim()
		d := NewDumbbell(s, 1, 1, lanDumbbell)
		var arrivals []Time
		d.Net.Host(d.Right[0]).Register(1, func(pkt *Packet, at Time) {
			arrivals = append(arrivals, at)
		})
		for i := 0; i < 20; i++ {
			at := Time(i) * Time(Milliseconds(0.3))
			d.Net.Schedule(at, func() {
				d.Net.Send(&Packet{Flow: 1, Src: d.Left[0], Dst: d.Right[0], Size: 1500})
			})
		}
		for s.Step() {
		}
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPacketString(t *testing.T) {
	d := &Packet{Flow: 1, Src: 0, Dst: 1, Seq: 100, Len: 50}
	a := &Packet{Flow: 1, Src: 1, Dst: 0, IsAck: true, Ack: 150}
	if d.String() == "" || a.String() == "" {
		t.Fatal("empty String()")
	}
	if Out.String() != "out" || In.String() != "in" {
		t.Fatal("Direction.String")
	}
}
