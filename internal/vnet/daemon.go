package vnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
	"freemeasure/internal/vttif"
)

// VMPort delivers frames to a locally attached VM.
type VMPort func(f *ethernet.Frame)

// ControlHandler receives control payloads pushed by peer daemons.
type ControlHandler func(fromPeer string, payload []byte)

// DaemonStats counts daemon-level events.
type DaemonStats struct {
	FramesFromVMs   uint64
	FramesDelivered uint64
	FramesForwarded uint64
	FramesFlooded   uint64
	FramesDropped   uint64
	TTLExpired      uint64
	WrenFeedDropped uint64 // records evicted from the feed ring under overload
}

// daemonCounters is the hot-path view of DaemonStats: plain atomics, no
// lock anywhere near the per-frame path.
type daemonCounters struct {
	fromVMs     atomic.Uint64
	delivered   atomic.Uint64
	forwarded   atomic.Uint64
	flooded     atomic.Uint64
	dropped     atomic.Uint64
	ttlExpired  atomic.Uint64
	feedDropped atomic.Uint64
}

// Daemon is one VNET daemon. Every physical host that can run VMs runs
// one; one more (the Proxy) provides the network presence on the user's
// LAN and the hub of the initial star topology.
//
// The per-frame path is lock-free: forwarding state lives in an immutable
// snapshot behind an atomic pointer (see fwdTable), counters are atomics,
// and Wren records travel through a bounded ring drained by a dedicated
// analyzer goroutine. d.mu serializes the control plane only —
// registration, snapshot swaps, lifecycle.
type Daemon struct {
	name string

	// fwd is the current forwarding snapshot; handleFrame and the relay
	// path read it with a single atomic load.
	fwd atomic.Pointer[fwdTable]

	// Wren feed: bounded ring + batch sink, both swapped atomically.
	ring      atomic.Pointer[feedRing]
	wrenBatch atomic.Pointer[func([]pcap.Record)]
	feedCap   int // ring capacity override (tests); set before the first SetWrenBatchFeed

	mu     sync.RWMutex // control plane: registration state and snapshot swaps
	ln     net.Listener
	closed bool

	// Virtual-UDP link state: one shared socket; the per-datagram demux
	// table is an atomic snapshot (udpDemux) so the read loop never locks.
	udpSock *net.UDPConn
	udp     atomic.Pointer[udpDemux]

	traffic    *vttif.Local
	onControl  ControlHandler
	onLinkDown func(peer string)
	flight     *obs.FlightRecorder
	log        *slog.Logger

	cnt daemonCounters
	met Metrics
	wg  sync.WaitGroup
}

// NewDaemon creates a daemon named name (names must be unique across the
// overlay; they identify link endpoints in Wren records and rules).
func NewDaemon(name string) *Daemon {
	d := &Daemon{
		name:    name,
		traffic: vttif.NewLocal(),
	}
	d.fwd.Store(&fwdTable{self: name, learned: &macTable{}, regs: &macTable{}})
	d.udp.Store(&udpDemux{})
	return d
}

// Name returns the daemon's name.
func (d *Daemon) Name() string { return d.name }

// Traffic returns the daemon's local VTTIF accumulator.
func (d *Daemon) Traffic() *vttif.Local { return d.traffic }

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	return DaemonStats{
		FramesFromVMs:   d.cnt.fromVMs.Load(),
		FramesDelivered: d.cnt.delivered.Load(),
		FramesForwarded: d.cnt.forwarded.Load(),
		FramesFlooded:   d.cnt.flooded.Load(),
		FramesDropped:   d.cnt.dropped.Load(),
		TTLExpired:      d.cnt.ttlExpired.Load(),
		WrenFeedDropped: d.cnt.feedDropped.Load(),
	}
}

// SetWrenBatchFeed installs the batched capture sink: the analyzer
// goroutine drains the feed ring and calls fn with each batch, preserving
// record order. The batch slice is reused between calls — sinks must not
// retain it. A nil fn detaches the sink (ring contents are discarded).
func (d *Daemon) SetWrenBatchFeed(fn func([]pcap.Record)) {
	if fn == nil {
		d.wrenBatch.Store(nil)
		return
	}
	d.startFeedRing()
	d.wrenBatch.Store(&fn)
}

// startFeedRing lazily creates the ring and its analyzer goroutine.
func (d *Daemon) startFeedRing() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ring.Load() != nil || d.closed {
		return
	}
	r := newFeedRing(d.feedCap)
	d.ring.Store(r)
	d.wg.Add(1)
	go d.feedLoop(r)
}

// SetControlHandler installs the handler for control pushes from peers.
func (d *Daemon) SetControlHandler(fn ControlHandler) {
	d.mu.Lock()
	d.onControl = fn
	d.mu.Unlock()
}

// SetLinkDownHandler installs a callback fired when a live link is torn
// down (peer crash, partition, or explicit Disconnect). It runs outside
// the daemon's control-plane lock, so the handler may call back into the
// daemon — EnableRingRehome builds on that to shrink the proxy ring.
func (d *Daemon) SetLinkDownHandler(fn func(peer string)) {
	d.mu.Lock()
	d.onLinkDown = fn
	d.mu.Unlock()
}

// SetFlight attaches a flight recorder; the daemon records ring swaps and
// re-home decisions on it. Nil (the default) records nothing.
func (d *Daemon) SetFlight(fr *obs.FlightRecorder) {
	d.mu.Lock()
	d.flight = fr
	d.mu.Unlock()
}

// Flight returns the attached flight recorder (nil — a valid no-op
// recorder — when none is attached). Cross-node instrumentation like
// Overlay.Apply uses it to record spans on the daemon a step touches.
func (d *Daemon) Flight() *obs.FlightRecorder {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.flight
}

// SetLogger attaches a structured logger for link lifecycle events
// (obs.NewLogger builds one with the shared attribute vocabulary). Nil —
// the default — keeps the daemon silent.
func (d *Daemon) SetLogger(l *slog.Logger) {
	d.mu.Lock()
	d.log = l
	d.mu.Unlock()
}

// feedWren enqueues one capture record for the analyzer goroutine. It
// never blocks: with no sink installed it is a pair of atomic loads, and
// a full ring drops the oldest record rather than stalling the caller.
func (d *Daemon) feedWren(rec pcap.Record) {
	if d.wrenBatch.Load() == nil {
		return
	}
	r := d.ring.Load()
	if r == nil {
		return
	}
	if r.push(rec) {
		d.cnt.feedDropped.Add(1)
		d.met.WrenFeedDropped.Inc()
	}
}

// Listen starts accepting incoming links on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (d *Daemon) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		return "", errors.New("vnet: daemon closed")
	}
	d.ln = ln
	d.mu.Unlock()
	d.wg.Add(1)
	go d.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.handshake(conn, false); err != nil {
				conn.Close()
			}
		}()
	}
}

// Connect dials a peer daemon and establishes a link. It returns the
// peer's name.
func (d *Daemon) Connect(addr string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	peer, err := d.handshakeNamed(conn, true)
	if err != nil {
		conn.Close()
		return "", err
	}
	return peer, nil
}

func (d *Daemon) handshake(conn net.Conn, initiator bool) error {
	_, err := d.handshakeNamed(conn, initiator)
	return err
}

// handshakeNamed exchanges hello messages (initiator speaks first) and
// registers the link. The acceptor installs its side before it replies:
// once the dialer's Connect has returned, both daemons can look the link
// up and route over it. Holding the new link's writeMu across install and
// reply keeps the hello the first message on the wire even if forwarding
// picks the link up at once.
func (d *Daemon) handshakeNamed(conn net.Conn, initiator bool) (string, error) {
	if initiator {
		if err := writeMessage(conn, msgHello, []byte(d.name)); err != nil {
			return "", err
		}
	}
	typ, payload, err := readMessage(conn)
	if err != nil {
		return "", err
	}
	if typ != msgHello {
		return "", fmt.Errorf("vnet: expected hello, got type %d", typ)
	}
	peer := string(payload)
	if peer == "" || peer == d.name {
		return "", fmt.Errorf("vnet: invalid peer name %q", peer)
	}
	link := &Link{daemon: d, peer: peer, tr: &tcpTransport{conn: conn}}
	if initiator {
		err = d.installLink(link)
	} else {
		link.writeMu.Lock()
		if err = d.installLink(link); err == nil {
			if err = link.tr.send(msgHello, []byte(d.name)); err != nil {
				d.dropLink(link)
			}
		}
		link.writeMu.Unlock()
	}
	if err != nil {
		return "", err
	}
	// A freshly (re)connected peer may own slices of the ring; push it any
	// registrations it is missing (idempotent on the receiver).
	d.announceOwnedTo(link.peer)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.dropLink(link)
		// The link's whole receive side is one fixed chunk buffer: each
		// Read is one batch, acknowledged on arrival and then handled
		// message by message. Nothing downstream keeps a reference into the
		// buffer (local delivery copies), so a transit stream performs zero
		// allocations per frame.
		lr := newLinkReader(conn, d.met.LinkReads)
		for {
			batch, err := lr.readBatch()
			if err != nil {
				return
			}
			link.batchArrived(batch)
			for len(batch) > 0 {
				var typ byte
				var payload []byte
				typ, payload, batch = nextMessage(batch)
				d.handleMessage(link, typ, payload)
			}
		}
	}()
	return peer, nil
}

// registerLink stores a freshly handshaked link and fires the up callback.
func (d *Daemon) registerLink(link *Link) error {
	if err := d.installLink(link); err != nil {
		return err
	}
	// A freshly (re)connected peer may own slices of the ring; push it any
	// registrations it is missing (idempotent on the receiver).
	d.announceOwnedTo(link.peer)
	return nil
}

// installLink puts the link into the forwarding snapshot, replacing (and
// closing) an older link to the same peer. It sends nothing on the link.
func (d *Daemon) installLink(link *Link) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("vnet: daemon closed")
	}
	old := d.fwd.Load().links[link.peer]
	link.mFramesSent, link.mBytesSent = d.met.linkCounters(link.peer)
	d.swapFwdLocked(func(t *fwdTable) { t.links[link.peer] = link })
	d.met.Handshakes.Inc()
	d.met.LinksOpened.Inc()
	log := d.log
	d.mu.Unlock()
	if old != nil {
		// Closed outside d.mu: a virtual-UDP link's teardown re-enters the
		// daemon to update the demux snapshot.
		old.close()
	}
	if log != nil {
		log.Info("link up", "peer", link.peer)
	}
	return nil
}

// dropLink tears a link down and removes it from the tables.
func (d *Daemon) dropLink(link *Link) {
	link.close()
	d.mu.Lock()
	dropped := d.fwd.Load().links[link.peer] == link
	if dropped {
		d.swapFwdLocked(func(t *fwdTable) { delete(t.links, link.peer) })
	}
	d.met.LinksClosed.Inc()
	log := d.log
	down := d.onLinkDown
	closed := d.closed
	d.mu.Unlock()
	if !dropped {
		return
	}
	if log != nil {
		log.Info("link down", "peer", link.peer)
	}
	// Fired outside d.mu so the handler can mutate the daemon (re-home,
	// ring shrink); suppressed during Close — a shutting-down daemon must
	// not re-home off its own teardown.
	if down != nil && !closed {
		down(link.peer)
	}
}

// receiveDatagram is the receive step of the one-message-at-a-time
// transports (virtual UDP, the in-memory test transport): arrival
// accounting for the single message, then handling. The TCP reader does
// the same two steps per read batch instead.
func (d *Daemon) receiveDatagram(link *Link, typ byte, payload []byte) {
	if end, ok := frameEnd(typ, payload); ok {
		link.framesArrived(end)
	}
	d.handleMessage(link, typ, payload)
}

// handleMessage processes one link message whose arrival the receive loop
// has already accounted for (Link.framesArrived). payload belongs to the
// caller's receive buffer and is only valid during the call: a transit
// frame is rewritten and sent from it in place, anything that outlives the
// call (local VM delivery, control handlers) gets a copy.
func (d *Daemon) handleMessage(link *Link, typ byte, payload []byte) {
	switch typ {
	case msgFrame:
		if len(payload) < frameHeaderLen {
			return
		}
		link.frRecv.Add(1)
		link.bRecv.Add(uint64(len(payload)))
		ttl := payload[0]
		hdr, ok := ethernet.ParseHeader(payload[frameHeaderLen:])
		if !ok {
			return
		}
		d.relayFrame(payload, hdr, link.peer, ttl)
	case msgAck:
		if len(payload) != 8 {
			return
		}
		cum := int64(binary.BigEndian.Uint64(payload))
		link.ackedBytes.Store(cum)
		d.feedWren(pcap.Record{
			At:    time.Now().UnixNano(),
			Dir:   pcap.In,
			Flow:  pcap.FlowKey{Local: d.name, Remote: link.peer},
			Size:  13,
			IsAck: true,
			Ack:   cum,
		})
	case msgControl:
		if bytes.HasPrefix(payload, ringRegPrefix) {
			// Ring registrations are part of the overlay substrate, handled
			// natively ahead of the user control handler.
			d.handleRingReg(link.peer, payload)
			return
		}
		d.mu.RLock()
		fn := d.onControl
		d.mu.RUnlock()
		if fn != nil {
			fn(link.peer, bytes.Clone(payload)) // the handler may retain it
		}
	}
}

// AttachVM registers a local VM's virtual interface: frames addressed to
// mac are delivered through port. With a proxy ring installed the VM's
// location is also registered with the owning shard.
func (d *Daemon) AttachVM(mac ethernet.MAC, port VMPort) {
	d.mutateFwd(func(t *fwdTable) { t.vms[mac] = port })
	d.announceVM(mac, ringRegAdd)
}

// DetachVM removes a VM (e.g. after migration away) and withdraws its
// ring registration.
func (d *Daemon) DetachVM(mac ethernet.MAC) {
	d.mutateFwd(func(t *fwdTable) { delete(t.vms, mac) })
	d.announceVM(mac, ringRegRemove)
}

// AddRule installs an explicit forwarding rule: frames to dst leave via the
// link to peer. Explicit rules take precedence over learned locations.
func (d *Daemon) AddRule(dst ethernet.MAC, peer string) {
	d.mutateFwd(func(t *fwdTable) { t.rules[dst] = peer })
}

// RemoveRule deletes an explicit rule.
func (d *Daemon) RemoveRule(dst ethernet.MAC) {
	d.mutateFwd(func(t *fwdTable) { delete(t.rules, dst) })
}

// Rules returns a copy of the explicit forwarding table.
func (d *Daemon) Rules() map[ethernet.MAC]string {
	t := d.fwd.Load()
	out := make(map[ethernet.MAC]string, len(t.rules))
	for k, v := range t.rules {
		out[k] = v
	}
	return out
}

// Learned returns a copy of the bridge's learned MAC locations: which
// peer each source MAC was last seen arriving from. On a hub daemon this
// approximates where each VM lives.
func (d *Daemon) Learned() map[ethernet.MAC]string {
	t := d.fwd.Load()
	if t.learned == nil {
		return map[ethernet.MAC]string{}
	}
	return t.learned.snapshot()
}

// Registrations returns a copy of the ring registrations this daemon
// holds as an owning proxy: MAC -> the peer daemon hosting it.
func (d *Daemon) Registrations() map[ethernet.MAC]string {
	t := d.fwd.Load()
	if t.regs == nil {
		return map[ethernet.MAC]string{}
	}
	return t.regs.snapshot()
}

// SetDefaultRoute points unknown destinations at the link to peer — every
// non-proxy daemon defaults to the Proxy, forming the initial star.
func (d *Daemon) SetDefaultRoute(peer string) {
	d.mutateFwd(func(t *fwdTable) { t.deflt = peer })
}

// Disconnect tears down the link to peer, if any, and reports whether a
// link existed. The peer observes the closure as a read error and drops
// its side of the link.
func (d *Daemon) Disconnect(peer string) bool {
	link, ok := d.Link(peer)
	if !ok {
		return false
	}
	d.dropLink(link)
	return true
}

// Link returns the live link to peer, if any.
func (d *Daemon) Link(peer string) (*Link, bool) {
	l, ok := d.fwd.Load().links[peer]
	return l, ok
}

// Peers lists currently connected peer daemons.
func (d *Daemon) Peers() []string {
	t := d.fwd.Load()
	out := make([]string, 0, len(t.links))
	for p := range t.links {
		out = append(out, p)
	}
	return out
}

// SendControl pushes an opaque control payload to a peer daemon.
func (d *Daemon) SendControl(peer string, payload []byte) error {
	link, ok := d.Link(peer)
	if !ok {
		return fmt.Errorf("vnet: no link to %s", peer)
	}
	return link.sendControl(payload)
}

// InjectFrame is the virtual-interface capture path: a local VM sent f.
// The frame is counted by VTTIF and forwarded.
func (d *Daemon) InjectFrame(f *ethernet.Frame) {
	d.traffic.AddFrame(f.Src, f.Dst, f.WireLen())
	d.cnt.fromVMs.Add(1)
	d.met.FramesFromVMs.Inc()
	d.handleFrame(f)
}

// handleFrame implements the forwarding table for frames materialized as
// an ethernet.Frame (VM ingress): local delivery, explicit rule, learned
// location, broadcast flood, or default route. Frames relayed between
// peers take the zero-copy relayFrame path instead.
func (d *Daemon) handleFrame(f *ethernet.Frame) {
	if f.Dst.IsBroadcast() {
		d.flood(f)
		return
	}
	port, link := d.fwd.Load().route(f.Dst, "")
	if port != nil {
		d.cnt.delivered.Add(1)
		d.met.FramesDelivered.Inc()
		port(f)
		return
	}
	if link == nil {
		d.drop()
		return
	}
	d.forward(f, link)
}

// relayFrame routes a frame arriving from a peer using only its raw
// msgFrame payload ([ttl][seq:8][frame]): the 14-byte Ethernet header is
// parsed in place and, on transit, TTL and per-link sequence are
// rewritten directly in the received buffer — a relayed frame performs
// zero heap allocations. Only local delivery materializes a Frame, from a
// copy, because the receive buffer is reused as soon as the call returns.
func (d *Daemon) relayFrame(payload []byte, hdr ethernet.Header, fromPeer string, ttl byte) {
	d.learn(hdr.Src, fromPeer)
	if hdr.Type == ethernet.TypeProbe {
		// Rare by construction (probe trains, never application traffic);
		// the head frame of a traced train carries a trace context.
		d.probeArrived(payload, fromPeer)
	}
	if hdr.Dst.IsBroadcast() {
		d.floodRaw(payload, hdr, fromPeer, ttl)
		return
	}
	port, link := d.fwd.Load().route(hdr.Dst, fromPeer)
	if port != nil {
		f, err := ethernet.Unmarshal(bytes.Clone(payload[frameHeaderLen:]))
		if err != nil {
			return
		}
		d.cnt.delivered.Add(1)
		d.met.FramesDelivered.Inc()
		port(f)
		return
	}
	if link == nil {
		d.drop()
		return
	}
	// Transiting the overlay costs a hop.
	if ttl <= 1 {
		d.cnt.ttlExpired.Add(1)
		d.met.TTLExpired.Inc()
		return
	}
	payload[0] = ttl - 1
	if err := link.sendFramePayload(payload); err != nil {
		d.drop()
		return
	}
	d.cnt.forwarded.Add(1)
	d.met.FramesForwarded.Inc()
}

// forward sends a VM-ingress frame toward a peer, assembling the msgFrame
// payload in a pooled buffer. The first hop costs no TTL.
func (d *Daemon) forward(f *ethernet.Frame, link *Link) {
	bufp := msgBufs.Get().(*[]byte)
	payload, err := encodeFramePayload(bufp, f, DefaultTTL)
	if err != nil {
		msgBufs.Put(bufp)
		d.drop()
		return
	}
	err = link.sendFramePayload(payload)
	msgBufs.Put(bufp)
	if err != nil {
		d.drop()
		return
	}
	d.cnt.forwarded.Add(1)
	d.met.FramesForwarded.Inc()
}

// encodeFramePayload builds [ttl][seq placeholder:8][frame] in bufp's
// backing array, growing it if needed.
func encodeFramePayload(bufp *[]byte, f *ethernet.Frame, ttl byte) ([]byte, error) {
	n := frameHeaderLen + f.WireLen()
	if cap(*bufp) < n {
		*bufp = make([]byte, n)
	}
	payload := (*bufp)[:n]
	payload[0] = ttl
	if err := f.EncodeTo(payload[frameHeaderLen:]); err != nil {
		return nil, err
	}
	return payload, nil
}

// flood sends a VM-ingress broadcast to every other local VM and along the
// flood tree: a leaf sends it up its default link only, a hub (or a leaf
// whose default link is down) out of every link. See floodRaw for why the
// tree is loop-free.
func (d *Daemon) flood(f *ethernet.Frame) {
	t := d.fwd.Load()
	for mac, port := range t.vms {
		if mac != f.Src {
			port(f)
		}
	}
	if len(t.links) == 0 {
		return
	}
	bufp := msgBufs.Get().(*[]byte)
	payload, err := encodeFramePayload(bufp, f, DefaultTTL)
	if err != nil {
		msgBufs.Put(bufp)
		return
	}
	if up := t.links[t.deflt]; up != nil && t.leaf() {
		d.sendFlood(up, payload)
	} else {
		for _, link := range t.links {
			d.sendFlood(link, payload)
		}
	}
	msgBufs.Put(bufp)
}

// floodRaw is the relay-path flood: local ports get a Frame materialized
// from a copy (only built if a port exists), and a hub passes the raw
// payload on with TTL and sequence rewritten in place.
//
// Broadcasts follow a flood tree read off the forwarding snapshot, with
// no per-broadcast state: the star (or the proxy mesh) is the tree, and
// the direct links VADAPT adds are unicast shortcuts only. A leaf never
// re-floods a relayed broadcast; a hub floods it out of every link but
// the ingress, except that a ring member passes a broadcast it got from
// another ring member to non-members only. Only hubs relay, and a ring
// member relays to other members only what came from outside the ring,
// so no copy comes back around a cycle. TTL stays as the backstop for
// topologies with several hubs outside a ring.
func (d *Daemon) floodRaw(payload []byte, hdr ethernet.Header, fromPeer string, ttl byte) {
	t := d.fwd.Load()
	var f *ethernet.Frame
	for mac, port := range t.vms {
		if mac == hdr.Src {
			continue
		}
		if f == nil {
			var err error
			if f, err = ethernet.Unmarshal(bytes.Clone(payload[frameHeaderLen:])); err != nil {
				return
			}
		}
		port(f)
	}
	if t.leaf() {
		return
	}
	if ttl <= 1 {
		d.cnt.ttlExpired.Add(1)
		d.met.TTLExpired.Inc()
		return
	}
	payload[0] = ttl - 1
	fromRing := t.ring != nil && t.ring.Contains(fromPeer)
	for peer, link := range t.links {
		if peer == fromPeer || fromRing && t.ring.Contains(peer) {
			continue
		}
		d.sendFlood(link, payload)
	}
}

// sendFlood sends one copy of a broadcast payload and counts it.
func (d *Daemon) sendFlood(link *Link, payload []byte) {
	if err := link.sendFramePayload(payload); err == nil {
		d.cnt.flooded.Add(1)
		d.met.FramesFlooded.Inc()
	}
}

func (d *Daemon) drop() {
	d.cnt.dropped.Add(1)
	d.met.FramesDropped.Inc()
}

// Close shuts the daemon down: listener, all links, and the feed ring's
// analyzer goroutine (which performs a final drain).
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	ln := d.ln
	udp := d.udpSock
	t := d.fwd.Load()
	links := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	d.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if udp != nil {
		udp.Close()
	}
	for _, l := range links {
		l.close()
	}
	if r := d.ring.Load(); r != nil {
		close(r.stop)
	}
	d.wg.Wait()
}
