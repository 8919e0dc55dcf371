package vnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/pcap"
)

// collector is a test VM port capturing delivered frames.
type collector struct {
	mu     sync.Mutex
	frames []*ethernet.Frame
}

func (c *collector) port() VMPort {
	return func(f *ethernet.Frame) {
		c.mu.Lock()
		c.frames = append(c.frames, f)
		c.mu.Unlock()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// pair returns two connected daemons (a dialed b).
func pairT(t *testing.T) (*Daemon, *Daemon) {
	t.Helper()
	a := NewDaemon("a")
	b := NewDaemon("b")
	addrB, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	waitFor(t, "handshake", func() bool {
		_, okA := a.Link("b")
		_, okB := b.Link("a")
		return okA && okB
	})
	return a, b
}

// TestConnectReturnsWithBothSidesLinked: the acceptor installs its side of
// a link before it answers the hello, so the moment Connect returns the
// link can be looked up (SetRateMbps, rules) and used on both daemons.
func TestConnectReturnsWithBothSidesLinked(t *testing.T) {
	hub := NewDaemon("hub")
	defer hub.Close()
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dst := ethernet.VMMAC(1)
	var sink collector
	hub.AttachVM(dst, sink.port())
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("leaf%d", i)
		leaf := NewDaemon(name)
		defer leaf.Close()
		if _, err := leaf.Connect(addr); err != nil {
			t.Fatal(err)
		}
		if _, ok := hub.Link(name); !ok {
			t.Fatalf("Connect %d returned before the acceptor had the link", i)
		}
		leaf.AddRule(dst, "hub")
		leaf.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(2 + i), Type: ethernet.TypeApp})
	}
	waitFor(t, "a frame from every leaf", func() bool { return sink.count() == 100 })
}

func TestDirectForwardingWithRule(t *testing.T) {
	a, b := pairT(t)
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: []byte("hi")})
	waitFor(t, "frame delivery", func() bool { return sink.count() == 1 })
	if got := b.Stats().FramesDelivered; got != 1 {
		t.Fatalf("delivered = %d", got)
	}
}

func TestLearningFromReceivedFrames(t *testing.T) {
	a, b := pairT(t)
	macA, macB := ethernet.VMMAC(1), ethernet.VMMAC(2)
	var sinkA, sinkB collector
	a.AttachVM(macA, sinkA.port())
	b.AttachVM(macB, sinkB.port())
	a.SetDefaultRoute("b")
	// A sends to B via default route; B learns where macA lives and can
	// reply without any rule or default.
	a.InjectFrame(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeApp})
	waitFor(t, "forward delivery", func() bool { return sinkB.count() == 1 })
	b.InjectFrame(&ethernet.Frame{Dst: macA, Src: macB, Type: ethernet.TypeApp})
	waitFor(t, "learned reply", func() bool { return sinkA.count() == 1 })
}

func TestUnknownDestinationDropped(t *testing.T) {
	a, _ := pairT(t)
	a.InjectFrame(&ethernet.Frame{Dst: ethernet.VMMAC(9), Src: ethernet.VMMAC(1)})
	waitFor(t, "drop", func() bool { return a.Stats().FramesDropped == 1 })
}

func TestBroadcastFloodsEverywhere(t *testing.T) {
	// Star: proxy in the middle, a and b as leaves.
	proxy := NewDaemon("proxy")
	addrP, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewDaemon("a"), NewDaemon("b")
	for _, d := range []*Daemon{a, b} {
		if _, err := d.Connect(addrP); err != nil {
			t.Fatal(err)
		}
		d.SetDefaultRoute("proxy")
	}
	t.Cleanup(func() { a.Close(); b.Close(); proxy.Close() })
	var sinkB collector
	b.AttachVM(ethernet.VMMAC(2), sinkB.port())
	waitFor(t, "links", func() bool { return len(proxy.Peers()) == 2 })
	a.InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "broadcast delivery", func() bool { return sinkB.count() == 1 })
}

func TestStarForwardingAfterAnnouncement(t *testing.T) {
	proxy := NewDaemon("proxy")
	addrP, _ := proxy.Listen("127.0.0.1:0")
	a, b := NewDaemon("a"), NewDaemon("b")
	for _, d := range []*Daemon{a, b} {
		if _, err := d.Connect(addrP); err != nil {
			t.Fatal(err)
		}
		d.SetDefaultRoute("proxy")
	}
	t.Cleanup(func() { a.Close(); b.Close(); proxy.Close() })
	waitFor(t, "links", func() bool { return len(proxy.Peers()) == 2 })
	macB := ethernet.VMMAC(2)
	var sinkB collector
	b.AttachVM(macB, sinkB.port())
	// Announce macB: broadcast teaches the proxy its location.
	b.InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: macB, Type: ethernet.TypeControl})
	waitFor(t, "proxy learns", func() bool {
		_, ok := proxy.Learned()[macB]
		return ok
	})
	a.InjectFrame(&ethernet.Frame{Dst: macB, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "two-hop delivery", func() bool { return sinkB.count() == 1 })
}

func TestTTLStopsRoutingLoops(t *testing.T) {
	// Three daemons whose default routes form a cycle a->b->c->a (a
	// two-node loop is already stopped by split horizon on the default
	// route). A frame to an unknown MAC circulates until its TTL expires.
	mk := func(name string) (*Daemon, string) {
		d := NewDaemon(name)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d, addr
	}
	a, _ := mk("a")
	b, addrB := mk("b")
	c, addrC := mk("c")
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Connect(addrC); err != nil {
		t.Fatal(err)
	}
	aAddr := a.ln.Addr().String()
	if _, err := c.Connect(aAddr); err != nil {
		t.Fatal(err)
	}
	a.SetDefaultRoute("b")
	b.SetDefaultRoute("c")
	c.SetDefaultRoute("a")
	a.InjectFrame(&ethernet.Frame{Dst: ethernet.VMMAC(99), Src: ethernet.VMMAC(1)})
	waitFor(t, "ttl expiry", func() bool {
		return a.Stats().TTLExpired+b.Stats().TTLExpired+c.Stats().TTLExpired >= 1
	})
}

func TestRateLimitThrottles(t *testing.T) {
	a, b := pairT(t)
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	link, _ := a.Link("b")
	link.SetRateMbps(20) // 20 Mbit/s
	const frames = 400   // ~600 KB -> >= ~180 ms at 20 Mbit/s after burst credit
	start := time.Now()
	payload := make([]byte, 1486)
	for i := 0; i < frames; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: payload})
	}
	waitFor(t, "throttled delivery", func() bool { return sink.count() == frames })
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("400 large frames at 20 Mbit/s took only %v", elapsed)
	}
}

func TestWrenFeedRecords(t *testing.T) {
	a, b := pairT(t)
	var mu sync.Mutex
	var recs []pcap.Record
	a.SetWrenBatchFeed(func(rs []pcap.Record) {
		mu.Lock()
		recs = append(recs, rs...)
		mu.Unlock()
	})
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	const frames = 10
	for i := 0; i < frames; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: make([]byte, 1000)})
	}
	link, _ := a.Link("b")
	sent, _, _ := link.SeqState()
	// ACKs are cumulative, one per read batch at the receiver: wait for the
	// one that covers everything sent, not for a fixed number of them.
	waitFor(t, "covering ack record", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if r.IsAck && r.Ack == sent {
				return true
			}
		}
		return false
	})
	mu.Lock()
	defer mu.Unlock()
	var lastSeq, lastAck int64 = -1, -1
	var acks, outs int
	for _, r := range recs {
		if r.Flow != (pcap.FlowKey{Local: "a", Remote: "b"}) {
			t.Fatalf("flow = %+v", r.Flow)
		}
		if r.IsAck {
			if r.Ack < lastAck {
				t.Fatal("acks not cumulative")
			}
			lastAck = r.Ack
			acks++
		} else {
			if r.Seq <= lastSeq {
				t.Fatal("data seq not increasing")
			}
			lastSeq = r.Seq
			outs++
		}
	}
	if outs != frames {
		t.Fatalf("%d departure records, want %d", outs, frames)
	}
	if acks < 1 || acks > frames {
		t.Fatalf("%d ack records for %d frames, want 1..%d", acks, frames, frames)
	}
	// Last frame message: 1000 payload + 14 ethernet header + 9 (ttl+seq).
	if lastAck != sent || lastAck != lastSeq+1023 {
		t.Fatalf("final ack %d, want sentBytes %d = final seq %d + frame", lastAck, sent, lastSeq)
	}
}

func TestLinkFailureAndReconnect(t *testing.T) {
	a, b := pairT(t)
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	link, _ := a.Link("b")
	link.close() // failure injection: TCP connection dies
	waitFor(t, "link teardown", func() bool {
		_, ok := a.Link("b")
		return !ok
	})
	// Sends during the outage drop but do not wedge the daemon.
	a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "drop during outage", func() bool { return a.Stats().FramesDropped >= 1 })
	// Reconnect and verify traffic flows again.
	bAddr := b.ln.Addr().String()
	if _, err := a.Connect(bAddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "relink", func() bool { _, ok := a.Link("b"); return ok })
	a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "post-reconnect delivery", func() bool { return sink.count() >= 1 })
}

func TestControlRoundTrip(t *testing.T) {
	a, b := pairT(t)
	var mu sync.Mutex
	var got []byte
	var from string
	b.SetControlHandler(func(peer string, payload []byte) {
		mu.Lock()
		from, got = peer, append([]byte(nil), payload...)
		mu.Unlock()
	})
	if err := a.SendControl("b", []byte("metrics")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return string(got) == "metrics" && from == "a"
	})
	if err := a.SendControl("nobody", nil); err == nil {
		t.Fatal("SendControl to unknown peer should error")
	}
}

func TestVTTIFCountsLocalVMTraffic(t *testing.T) {
	a, b := pairT(t)
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	src := ethernet.VMMAC(1)
	a.InjectFrame(&ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, 986)})
	waitFor(t, "delivery", func() bool { return sink.count() == 1 })
	snap := a.Traffic().Snapshot()
	var total uint64
	for _, v := range snap {
		total += v
	}
	if total != 1000 { // 986 + 14 header
		t.Fatalf("vttif bytes = %d, want 1000", total)
	}
	// Forwarded (non-local) traffic must not be double counted at b.
	if len(b.Traffic().Snapshot()) != 0 {
		t.Fatal("transit traffic counted by remote daemon's VTTIF")
	}
}

func TestDaemonCloseIdempotent(t *testing.T) {
	a, _ := pairT(t)
	a.Close()
	a.Close() // second close must not panic or hang
}

func TestHandshakeRejectsBadPeer(t *testing.T) {
	d := NewDaemon("x")
	addr, _ := d.Listen("127.0.0.1:0")
	defer d.Close()
	same := NewDaemon("x") // same name as listener: rejected
	if _, err := same.Connect(addr); err == nil {
		// The dialer's handshake reads the listener's name "x" == its own.
		t.Fatal("self-named connect should fail")
	}
	same.Close()
}
