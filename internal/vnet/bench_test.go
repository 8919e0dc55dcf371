package vnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"freemeasure/internal/ethernet"
)

// The data-plane micro-benchmarks pin the cost of the forwarding fast
// path without sockets: links carry a null transport, so the numbers
// isolate table lookup, header handling, accounting, and buffer
// management — the per-frame overhead the paper's "free measurement"
// pitch depends on. Frames enter through receiveDatagram, so each one
// pays its arrival accounting and ACK as on a datagram link. CI runs
// these with -benchmem (see the bench job); before/after tables live in
// docs/OPERATIONS.md.

type nullTransport struct{}

func (nullTransport) send(typ byte, payload []byte) error { return nil }
func (nullTransport) close()                              {}
func (nullTransport) kind() string                        { return "null" }

// benchLink registers a null-transport link on d under the given peer name.
func benchLink(b *testing.B, d *Daemon, peer string) *Link {
	b.Helper()
	l := &Link{daemon: d, peer: peer, tr: nullTransport{}}
	if err := d.registerLink(l); err != nil {
		b.Fatal(err)
	}
	return l
}

// benchFramePayload builds a msgFrame payload ([ttl][seq:8][frame]) for a
// unicast frame to dst.
func benchFramePayload(b *testing.B, dst, src ethernet.MAC, payloadLen int) []byte {
	b.Helper()
	f := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, payloadLen)}
	raw, err := f.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, frameHeaderLen+len(raw))
	payload[0] = DefaultTTL
	copy(payload[frameHeaderLen:], raw)
	return payload
}

// BenchmarkDaemonForward measures the VM-ingress path: InjectFrame with an
// explicit rule, forwarded over a null link.
func BenchmarkDaemonForward(b *testing.B) {
	d := NewDaemon("self")
	defer d.Close()
	benchLink(b, d, "peer")
	dst, src := ethernet.VMMAC(2), ethernet.VMMAC(1)
	d.AddRule(dst, "peer")
	f := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, 1400)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InjectFrame(f)
	}
	if got := d.Stats().FramesForwarded; got != uint64(b.N) {
		b.Fatalf("forwarded %d of %d", got, b.N)
	}
}

// BenchmarkDaemonTransitRelay measures the pure transit path: a frame
// arrives from one peer and leaves toward another. This is the paper's
// headline per-packet cost; the target is zero heap allocations.
func BenchmarkDaemonTransitRelay(b *testing.B) {
	d := NewDaemon("self")
	defer d.Close()
	benchLink(b, d, "next")
	in := benchLink(b, d, "prev")
	dst, src := ethernet.VMMAC(2), ethernet.VMMAC(1)
	d.AddRule(dst, "next")
	payload := benchFramePayload(b, dst, src, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = DefaultTTL // relay rewrites TTL in place
		d.receiveDatagram(in, msgFrame, payload)
	}
	b.StopTimer()
	if got := d.Stats().FramesForwarded; got != uint64(b.N) {
		b.Fatalf("forwarded %d of %d", got, b.N)
	}
}

// BenchmarkDaemonTransitRelayRing measures the transit path when the
// egress is resolved by the consistent-hash ring rather than a rule or
// registration — the sharded mesh's steady-state relay toward the proxy
// owning the destination's slice. The 0-allocs bar applies here too: the
// ring walk must stay closure-free.
func BenchmarkDaemonTransitRelayRing(b *testing.B) {
	d := NewDaemon("self")
	defer d.Close()
	members := []string{"p0", "p1", "p2", "p3"}
	for _, m := range members {
		benchLink(b, d, m)
	}
	d.SetProxyRing(MustNewProxyRing(members, DefaultRingVnodes))
	in := benchLink(b, d, "prev")
	dst, src := ethernet.VMMAC(2), ethernet.VMMAC(1)
	payload := benchFramePayload(b, dst, src, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = DefaultTTL
		d.receiveDatagram(in, msgFrame, payload)
	}
	b.StopTimer()
	if got := d.Stats().FramesForwarded; got != uint64(b.N) {
		b.Fatalf("forwarded %d of %d", got, b.N)
	}
}

// BenchmarkDaemonHandleFrameParallel measures transit relay throughput
// under goroutine parallelism (one ingress link per worker, shared
// forwarding table and egress link) — the contention figure for the
// lock-free snapshot refactor.
func BenchmarkDaemonHandleFrameParallel(b *testing.B) {
	d := NewDaemon("self")
	defer d.Close()
	benchLink(b, d, "next")
	dst, src := ethernet.VMMAC(2), ethernet.VMMAC(1)
	d.AddRule(dst, "next")
	proto := benchFramePayload(b, dst, src, 1400)
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		in := &Link{daemon: d, peer: fmt.Sprintf("prev%d", id.Add(1)), tr: nullTransport{}}
		if err := d.registerLink(in); err != nil {
			b.Error(err)
			return
		}
		payload := append([]byte(nil), proto...)
		for pb.Next() {
			payload[0] = DefaultTTL
			d.receiveDatagram(in, msgFrame, payload)
		}
	})
}

// BenchmarkDaemonFlood measures the broadcast path to 4 peer links.
func BenchmarkDaemonFlood(b *testing.B) {
	d := NewDaemon("self")
	defer d.Close()
	for i := 0; i < 4; i++ {
		benchLink(b, d, fmt.Sprintf("peer%d", i))
	}
	in := benchLink(b, d, "prev")
	payload := benchFramePayload(b, ethernet.Broadcast, ethernet.VMMAC(1), 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = DefaultTTL
		d.receiveDatagram(in, msgFrame, payload)
	}
}
