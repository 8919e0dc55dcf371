package vnet

import (
	"fmt"
	"sync"
	"testing"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/pcap"
)

// Tests for the lock-free data plane: forwarding against the atomically
// swapped snapshot table, in-place TTL handling, bridge-learning
// visibility, the bounded Wren feed ring, and the atomic link counters.

// recordingTransport captures every message a link sends, so tests can
// assert on the exact egress traffic of an in-process daemon.
type recordingTransport struct {
	mu   sync.Mutex
	typs []byte
	msgs [][]byte
}

func (t *recordingTransport) send(typ byte, payload []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.typs = append(t.typs, typ)
	t.msgs = append(t.msgs, append([]byte(nil), payload...))
	return nil
}
func (t *recordingTransport) close()       {}
func (t *recordingTransport) kind() string { return "rec" }

// frames returns the msgFrame payloads sent so far.
func (t *recordingTransport) frames() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [][]byte
	for i, typ := range t.typs {
		if typ == msgFrame {
			out = append(out, t.msgs[i])
		}
	}
	return out
}

// testLink registers a recording-transport link on d.
func testLink(t *testing.T, d *Daemon, peer string) (*Link, *recordingTransport) {
	t.Helper()
	tr := &recordingTransport{}
	l := &Link{daemon: d, peer: peer, tr: tr}
	if err := d.registerLink(l); err != nil {
		t.Fatal(err)
	}
	return l, tr
}

// framePayload builds a msgFrame payload ([ttl][seq:8][frame]).
func framePayload(t *testing.T, dst, src ethernet.MAC, ttl byte, payloadLen int) []byte {
	t.Helper()
	f := &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeApp, Payload: make([]byte, payloadLen)}
	raw, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, frameHeaderLen+len(raw))
	payload[0] = ttl
	copy(payload[frameHeaderLen:], raw)
	return payload
}

// TestRelayLearningVisibility: a frame relayed immediately after the frame
// that taught the source's location must already see the learned entry —
// the batched learning path is synchronous for an uncontended caller, so
// no settling time is allowed.
func TestRelayLearningVisibility(t *testing.T) {
	d := NewDaemon("hub")
	defer d.Close()
	in1, tr1 := testLink(t, d, "prev1")
	in2, tr2 := testLink(t, d, "prev2")
	macX, macY := ethernet.VMMAC(1), ethernet.VMMAC(2)

	// Broadcast from prev1 teaches macX's location and floods to prev2.
	d.handleMessage(in1, msgFrame, framePayload(t, ethernet.Broadcast, macX, DefaultTTL, 64))
	if got := d.Learned()[macX]; got != "prev1" {
		t.Fatalf("learned[macX] = %q, want prev1", got)
	}
	if n := len(tr2.frames()); n != 1 {
		t.Fatalf("flood reached prev2 %d times, want 1", n)
	}

	// The very next frame toward macX must route via the learned entry.
	d.handleMessage(in2, msgFrame, framePayload(t, macX, macY, DefaultTTL, 64))
	if n := len(tr1.frames()); n != 1 {
		t.Fatalf("unicast toward learned macX reached prev1 %d times, want 1", n)
	}
	if st := d.Stats(); st.FramesForwarded != 1 {
		t.Fatalf("FramesForwarded = %d, want 1", st.FramesForwarded)
	}
}

// TestRelayTTLExpiry: a transit frame arriving with TTL 1 is dropped at
// this hop, counted, and never reaches the egress link.
func TestRelayTTLExpiry(t *testing.T) {
	d := NewDaemon("hub")
	defer d.Close()
	in, _ := testLink(t, d, "prev")
	_, out := testLink(t, d, "next")
	dst := ethernet.VMMAC(2)
	d.AddRule(dst, "next")

	d.handleMessage(in, msgFrame, framePayload(t, dst, ethernet.VMMAC(1), 1, 64))
	if st := d.Stats(); st.TTLExpired != 1 || st.FramesForwarded != 0 {
		t.Fatalf("stats = %+v, want one TTL expiry and no forwards", st)
	}
	if n := len(out.frames()); n != 0 {
		t.Fatalf("expired frame reached egress %d times", n)
	}

	// TTL 2 survives this hop and leaves with TTL 1 stamped in place.
	d.handleMessage(in, msgFrame, framePayload(t, dst, ethernet.VMMAC(1), 2, 64))
	fr := out.frames()
	if len(fr) != 1 {
		t.Fatalf("egress frames = %d, want 1", len(fr))
	}
	if fr[0][0] != 1 {
		t.Fatalf("relayed TTL = %d, want 1", fr[0][0])
	}
}

// TestBroadcastFloodUnderSnapshot: a broadcast from one peer reaches every
// other peer exactly once, is delivered to local VMs, and never returns to
// its ingress link (split horizon), all against the snapshot table.
func TestBroadcastFloodUnderSnapshot(t *testing.T) {
	d := NewDaemon("hub")
	defer d.Close()
	in, trIn := testLink(t, d, "prev")
	var outs []*recordingTransport
	for i := 0; i < 3; i++ {
		_, tr := testLink(t, d, fmt.Sprintf("peer%d", i))
		outs = append(outs, tr)
	}
	var sink collector
	d.AttachVM(ethernet.VMMAC(9), sink.port())

	d.handleMessage(in, msgFrame, framePayload(t, ethernet.Broadcast, ethernet.VMMAC(1), DefaultTTL, 64))
	for i, tr := range outs {
		if n := len(tr.frames()); n != 1 {
			t.Fatalf("peer%d received %d flood copies, want 1", i, n)
		}
	}
	if n := len(trIn.frames()); n != 0 {
		t.Fatalf("flood echoed to its ingress link %d times", n)
	}
	if sink.count() != 1 {
		t.Fatalf("local VM got %d copies, want 1", sink.count())
	}
	if st := d.Stats(); st.FramesFlooded != 3 {
		t.Fatalf("stats = %+v, want 3 flooded", st)
	}
}

// TestFeedRingDropOldest: when the Wren analyzer stalls, the bounded feed
// ring evicts the oldest records, counts them, and keeps the newest.
func TestFeedRingDropOldest(t *testing.T) {
	d := NewDaemon("self")
	defer d.Close()
	const capacity = 8
	d.SetWrenFeedCapacity(capacity)

	var (
		mu       sync.Mutex
		got      []int64
		entered  = make(chan struct{})
		release  = make(chan struct{})
		blockOne sync.Once
	)
	d.SetWrenBatchFeed(func(rs []pcap.Record) {
		blockOne.Do(func() {
			close(entered)
			<-release
		})
		mu.Lock()
		for _, r := range rs {
			got = append(got, r.Seq)
		}
		mu.Unlock()
	})

	// First record wakes the analyzer, which blocks inside the sink.
	d.feedWren(pcap.Record{Seq: -1})
	<-entered

	// Overfill the stalled ring: 20 records into capacity 8.
	const pushed = 20
	for i := 0; i < pushed; i++ {
		d.feedWren(pcap.Record{Seq: int64(i)})
	}
	close(release)

	// The sentinel drains in the first batch; the stalled pushes drain next.
	waitFor(t, "ring drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == capacity+1
	})
	if st := d.Stats(); st.WrenFeedDropped != pushed-capacity {
		t.Fatalf("WrenFeedDropped = %d, want %d", st.WrenFeedDropped, pushed-capacity)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != -1 {
		t.Fatalf("got[0] = %d, want the sentinel", got[0])
	}
	// Survivors are the newest records, in order.
	for i, seq := range got[1:] {
		if want := int64(pushed - capacity + i); seq != want {
			t.Fatalf("got[%d] = %d, want %d (drop-oldest order)", i+1, seq, want)
		}
	}
}

// TestConcurrentMutationWhileForwarding hammers the relay path while the
// control plane churns rules, VMs, and the default route. The snapshot
// table must keep every frame on a consistent view — no drops to a
// half-updated table, no races (run with -race).
func TestConcurrentMutationWhileForwarding(t *testing.T) {
	d := NewDaemon("hub")
	defer d.Close()
	in, _ := testLink(t, d, "prev")
	testLink(t, d, "next")
	dst := ethernet.VMMAC(2)
	d.AddRule(dst, "next")
	payload := framePayload(t, dst, ethernet.VMMAC(1), DefaultTTL, 256)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := ethernet.VMMAC(7)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.AddRule(extra, "prev")
			d.AttachVM(extra, func(*ethernet.Frame) {})
			d.SetDefaultRoute("next")
			d.DetachVM(extra)
			d.RemoveRule(extra)
			_ = d.Rules()
			_ = d.Learned()
		}
	}()
	const n = 5000
	for i := 0; i < n; i++ {
		payload[0] = DefaultTTL
		d.handleMessage(in, msgFrame, payload)
	}
	close(stop)
	wg.Wait()
	// Every frame had a stable route in whichever snapshot it read.
	if st := d.Stats(); st.FramesForwarded != n {
		t.Fatalf("forwarded %d of %d under concurrent mutation", st.FramesForwarded, n)
	}
}

// TestLinkCounterConcurrency is the -race regression test for the link
// counters: frames flow both ways over a real TCP link while readers pull
// Stats and sequence state from other goroutines.
func TestLinkCounterConcurrency(t *testing.T) {
	a, b := NewDaemon("a"), NewDaemon("b")
	defer a.Close()
	defer b.Close()
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Connect(addr); err != nil {
		t.Fatal(err)
	}
	macA, macB := ethernet.VMMAC(1), ethernet.VMMAC(2)
	var sinkA, sinkB collector
	a.AttachVM(macA, sinkA.port())
	b.AttachVM(macB, sinkB.port())
	a.AddRule(macB, "b")
	b.AddRule(macA, "a")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range []*Daemon{a, b} {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if l, ok := d.Link(d.Peers()[0]); ok {
					_ = l.Stats()
					_, _, _ = l.SeqState()
				}
				_ = d.Stats()
			}
		}()
	}
	const n = 300
	wg.Add(2)
	go func() {
		defer wg.Done()
		f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeApp, Payload: make([]byte, 512)}
		for i := 0; i < n; i++ {
			a.InjectFrame(f)
		}
	}()
	go func() {
		defer wg.Done()
		f := &ethernet.Frame{Dst: macA, Src: macB, Type: ethernet.TypeApp, Payload: make([]byte, 512)}
		for i := 0; i < n; i++ {
			b.InjectFrame(f)
		}
	}()
	waitFor(t, "bidirectional delivery", func() bool {
		return sinkA.count() == n && sinkB.count() == n
	})
	close(stop)
	wg.Wait()

	la, _ := a.Link("b")
	sent, recv, acked := la.SeqState()
	if sent == 0 || recv == 0 {
		t.Fatalf("seq state sent=%d recv=%d, want both nonzero", sent, recv)
	}
	waitFor(t, "acks catch up", func() bool {
		s, _, ak := la.SeqState()
		return ak == s
	})
	_ = acked
	st := la.Stats()
	if st.FramesSent != n || st.FramesReceived != n {
		t.Fatalf("link stats = %+v, want %d sent and received", st, n)
	}
}

// TestFloodTreeRule pins each part of the flood tree against the
// snapshot: which links a broadcast leaves on, by the daemon's place in
// the tree and the link it arrived on.
func TestFloodTreeRule(t *testing.T) {
	ring := MustNewProxyRing([]string{"pa", "pb", "pc"}, 0)
	cases := []struct {
		name  string
		self  string
		deflt string
		ring  *ProxyRing
		links []string
		from  string // "" = the broadcast comes from a local VM
		want  []string
	}{
		{name: "hub relays to every link but the ingress", self: "hub",
			links: []string{"prev", "peer0", "peer1", "peer2", "peer3"}, from: "prev",
			want: []string{"peer0", "peer1", "peer2", "peer3"}},
		{name: "hub floods a local broadcast everywhere", self: "hub",
			links: []string{"h1", "h2"}, want: []string{"h1", "h2"}},
		{name: "leaf sends a local broadcast up only", self: "h1", deflt: "proxy",
			links: []string{"proxy", "h2", "h3"}, want: []string{"proxy"}},
		{name: "leaf never re-floods from its default link", self: "h1", deflt: "proxy",
			links: []string{"proxy", "h2", "h3"}, from: "proxy"},
		{name: "leaf never re-floods from a direct link", self: "h1", deflt: "proxy",
			links: []string{"proxy", "h2", "h3"}, from: "h2"},
		{name: "leaf with a dead default link floods a local broadcast", self: "h1", deflt: "proxy",
			links: []string{"h2", "h3"}, want: []string{"h2", "h3"}},
		{name: "leaf with a dead default link still never re-floods", self: "h1", deflt: "proxy",
			links: []string{"h2", "h3"}, from: "h2"},
		{name: "ring member relays a host's broadcast to everyone", self: "pa", ring: ring,
			links: []string{"pb", "pc", "h1", "h2"}, from: "h1",
			want: []string{"pb", "pc", "h2"}},
		{name: "ring member relays a member's broadcast to non-members", self: "pa", ring: ring,
			links: []string{"pb", "pc", "h1", "h2"}, from: "pb",
			want: []string{"h1", "h2"}},
		{name: "ring member with a default route is still a hub", self: "pa", deflt: "pb", ring: ring,
			links: []string{"pb", "pc", "h1", "h2"}, from: "h1",
			want: []string{"pb", "pc", "h2"}},
	}
	src, local := ethernet.VMMAC(1), ethernet.VMMAC(9)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDaemon(tc.self)
			defer d.Close()
			trs := make(map[string]*recordingTransport)
			var in *Link
			for _, p := range tc.links {
				l, tr := testLink(t, d, p)
				trs[p] = tr
				if p == tc.from {
					in = l
				}
			}
			if tc.ring != nil {
				d.SetProxyRing(tc.ring)
			}
			if tc.deflt != "" {
				d.SetDefaultRoute(tc.deflt)
			}
			var sink collector
			d.AttachVM(local, sink.port())
			if in != nil {
				d.handleMessage(in, msgFrame, framePayload(t, ethernet.Broadcast, src, DefaultTTL, 64))
			} else {
				d.InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: src, Type: ethernet.TypeApp})
			}
			want := make(map[string]bool)
			for _, p := range tc.want {
				want[p] = true
			}
			for p, tr := range trs {
				w := 0
				if want[p] {
					w = 1
				}
				if n := len(tr.frames()); n != w {
					t.Errorf("%s got %d copies, want %d", p, n, w)
				}
			}
			if sink.count() != 1 {
				t.Errorf("local VM got %d copies, want 1", sink.count())
			}
			if st := d.Stats(); st.FramesFlooded != uint64(len(tc.want)) || st.TTLExpired != 0 {
				t.Errorf("stats = %+v, want %d flooded and no TTL expiry", st, len(tc.want))
			}
		})
	}
}
