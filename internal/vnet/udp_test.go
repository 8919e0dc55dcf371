package vnet

import (
	"sync"
	"testing"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/pcap"
)

// udpPair returns two daemons joined by a virtual-UDP link (a dialed b).
func udpPair(t *testing.T) (*Daemon, *Daemon) {
	t.Helper()
	a := NewDaemon("a")
	b := NewDaemon("b")
	addrB, err := b.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := a.ConnectUDP(addrB)
	if err != nil {
		t.Fatal(err)
	}
	if peer != "b" {
		t.Fatalf("peer = %q", peer)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	waitFor(t, "udp links registered", func() bool {
		_, okA := a.Link("b")
		_, okB := b.Link("a")
		return okA && okB
	})
	return a, b
}

func TestUDPLinkForwardsFrames(t *testing.T) {
	a, b := udpPair(t)
	if l, _ := a.Link("b"); l.tr.kind() != "udp" {
		t.Fatalf("transport kind = %q", l.tr.kind())
	}
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	for i := 0; i < 20; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1),
			Type: ethernet.TypeApp, Payload: make([]byte, 900)})
	}
	waitFor(t, "udp frame delivery", func() bool { return sink.count() == 20 })
}

func TestUDPLinkBidirectional(t *testing.T) {
	a, b := udpPair(t)
	macA, macB := ethernet.VMMAC(1), ethernet.VMMAC(2)
	var sinkA, sinkB collector
	a.AttachVM(macA, sinkA.port())
	b.AttachVM(macB, sinkB.port())
	a.AddRule(macB, "b")
	b.AddRule(macA, "a")
	a.InjectFrame(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeApp})
	b.InjectFrame(&ethernet.Frame{Dst: macA, Src: macB, Type: ethernet.TypeApp})
	waitFor(t, "both directions", func() bool {
		return sinkA.count() == 1 && sinkB.count() == 1
	})
}

func TestUDPLinkFeedsWren(t *testing.T) {
	a, b := udpPair(t)
	var mu sync.Mutex
	var acks []int64
	a.SetWrenBatchFeed(func(rs []pcap.Record) {
		mu.Lock()
		for _, r := range rs {
			if r.IsAck {
				acks = append(acks, r.Ack)
			}
		}
		mu.Unlock()
	})
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	for i := 0; i < 10; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1),
			Type: ethernet.TypeApp, Payload: make([]byte, 500)})
	}
	waitFor(t, "acks over udp", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acks) == 10
	})
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(acks); i++ {
		if acks[i] < acks[i-1] {
			t.Fatal("acks not nondecreasing")
		}
	}
	// 10 frames of 500+14 bytes plus the 9-byte ttl+seq prefix each.
	if want := int64(10 * (500 + 14 + 9)); acks[len(acks)-1] != want {
		t.Fatalf("final ack %d, want %d", acks[len(acks)-1], want)
	}
}

func TestUDPHelloRetryTolerated(t *testing.T) {
	// Re-dialing an established link must not break it (duplicate hellos
	// are re-acknowledged, not re-registered).
	a, b := udpPair(t)
	addrB := b.udpSock.LocalAddr().String()
	if _, err := a.ConnectUDP(addrB); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "delivery after re-dial", func() bool { return sink.count() == 1 })
}

func TestUDPConnectTimeout(t *testing.T) {
	a := NewDaemon("a")
	defer a.Close()
	// A UDP port with nobody speaking VNET behind it: handshake times out.
	if _, err := a.ConnectUDP("127.0.0.1:9"); err == nil {
		t.Fatal("handshake to dead port succeeded")
	}
}

func TestUDPListenIdempotent(t *testing.T) {
	d := NewDaemon("d")
	defer d.Close()
	addr1, err := d.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := d.ListenUDP("127.0.0.1:0")
	if err != nil || addr2 != addr1 {
		t.Fatalf("second ListenUDP: %q vs %q, err %v", addr2, addr1, err)
	}
}

func TestMixedTransportsSameOverlay(t *testing.T) {
	// a --tcp--> hub <--udp-- b: frames route across transport types.
	hub := NewDaemon("hub")
	tcpAddr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udpAddr, err := hub.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewDaemon("a"), NewDaemon("b")
	t.Cleanup(func() { a.Close(); b.Close(); hub.Close() })
	if _, err := a.Connect(tcpAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ConnectUDP(udpAddr); err != nil {
		t.Fatal(err)
	}
	a.SetDefaultRoute("hub")
	b.SetDefaultRoute("hub")
	macB := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(macB, sink.port())
	// Announce macB so the hub learns its location via the UDP link.
	b.InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: macB, Type: ethernet.TypeControl})
	waitFor(t, "hub learns over udp", func() bool {
		_, ok := hub.Learned()[macB]
		return ok
	})
	a.InjectFrame(&ethernet.Frame{Dst: macB, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp})
	waitFor(t, "tcp->udp delivery", func() bool { return sink.count() == 1 })
}
