package vnet

import (
	"sync"
	"sync/atomic"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/pcap"
)

// This file holds the data-plane fast-path machinery: the immutable
// forwarding snapshot the per-frame path reads without locks, the striped
// copy-on-write MAC tables that keep high-cardinality state (bridge
// learning, ring registrations) off the snapshot-swap path, the bounded
// feed ring that decouples Wren ingest from forwarding, and the
// send-side message-buffer pool.

// macTableBuckets stripes the MAC location tables; a write copies one
// bucket (1/256th of the table), a read is one atomic load plus a map
// lookup. Power of two so the bucket index is a mask.
const macTableBuckets = 256

// macTable is a lock-free-read MAC -> peer-name map built from striped
// copy-on-write buckets. The full-snapshot fwdTable keeps low-cardinality
// control-plane state (VM ports, explicit rules, links) that changes
// rarely and must change transactionally; macTable keeps the
// high-cardinality advisory state — learned locations and ring
// registrations — where a proxy shard holding O(all-MACs / N) entries
// cannot afford a full-table copy per newly seen MAC. Writers serialize
// on mu; readers never lock and never allocate.
type macTable struct {
	mu      sync.Mutex
	buckets [macTableBuckets]atomic.Pointer[map[ethernet.MAC]string]
}

// macBucketIdx picks the bucket for a MAC, reusing the ring's hash so
// sequentially assigned VM MACs spread evenly.
func macBucketIdx(mac ethernet.MAC) uint64 { return macPoint(mac) & (macTableBuckets - 1) }

// get is the hot-path read: two loads, no locks, no allocation.
func (t *macTable) get(mac ethernet.MAC) (string, bool) {
	b := t.buckets[macBucketIdx(mac)].Load()
	if b == nil {
		return "", false
	}
	p, ok := (*b)[mac]
	return p, ok
}

// set records mac -> peer, copying only the affected bucket.
func (t *macTable) set(mac ethernet.MAC, peer string) {
	i := macBucketIdx(mac)
	t.mu.Lock()
	old := t.buckets[i].Load()
	var nb map[ethernet.MAC]string
	if old == nil {
		nb = map[ethernet.MAC]string{mac: peer}
	} else {
		nb = make(map[ethernet.MAC]string, len(*old)+1)
		for k, v := range *old {
			nb[k] = v
		}
		nb[mac] = peer
	}
	t.buckets[i].Store(&nb)
	t.mu.Unlock()
}

// removeIf deletes mac's entry when it still names peer (a guarded
// removal: a stale "remove" must not clobber a newer registration).
func (t *macTable) removeIf(mac ethernet.MAC, peer string) {
	i := macBucketIdx(mac)
	t.mu.Lock()
	old := t.buckets[i].Load()
	if old == nil {
		t.mu.Unlock()
		return
	}
	if cur, ok := (*old)[mac]; !ok || cur != peer {
		t.mu.Unlock()
		return
	}
	nb := make(map[ethernet.MAC]string, len(*old))
	for k, v := range *old {
		if k != mac {
			nb[k] = v
		}
	}
	t.buckets[i].Store(&nb)
	t.mu.Unlock()
}

// snapshot copies the whole table (control-plane introspection only).
func (t *macTable) snapshot() map[ethernet.MAC]string {
	out := make(map[ethernet.MAC]string)
	for i := range t.buckets {
		if b := t.buckets[i].Load(); b != nil {
			for k, v := range *b {
				out[k] = v
			}
		}
	}
	return out
}

// fwdTable is one immutable forwarding snapshot: local VM ports, explicit
// rules, live links, the proxy ring, and the default route, plus shared
// pointers to the striped learned/registration tables. The daemon
// publishes it through an atomic pointer; readers never lock, and every
// control-plane mutation installs a fresh copy. Nil maps are valid —
// lookups on them simply miss.
type fwdTable struct {
	self    string // this daemon's name; an owner never ring-routes to itself
	vms     map[ethernet.MAC]VMPort
	rules   map[ethernet.MAC]string
	learned *macTable // bridge learning (shared across snapshots)
	regs    *macTable // ring registrations at an owning proxy (shared)
	links   map[string]*Link
	ring    *ProxyRing
	deflt   string
}

// clone copies the control-plane maps so a mutation never touches state a
// reader may hold; the striped learned/registration tables are shared (they
// version themselves per bucket).
func (t *fwdTable) clone() *fwdTable {
	nt := &fwdTable{
		self:    t.self,
		vms:     make(map[ethernet.MAC]VMPort, len(t.vms)+1),
		rules:   make(map[ethernet.MAC]string, len(t.rules)+1),
		learned: t.learned,
		regs:    t.regs,
		links:   make(map[string]*Link, len(t.links)+1),
		ring:    t.ring,
		deflt:   t.deflt,
	}
	for k, v := range t.vms {
		nt.vms[k] = v
	}
	for k, v := range t.rules {
		nt.rules[k] = v
	}
	for k, v := range t.links {
		nt.links[k] = v
	}
	return nt
}

// route resolves a unicast destination against the snapshot: a local VM
// port, or the link to forward on (nil port and nil link = drop). The
// precedence extends the classic bridge for the sharded overlay: local
// delivery, explicit rule, ring registration, learned location, the ring
// owner, default route — with split horizon (never back out the ingress
// peer). Each tier with a dead link falls through to the next instead of
// blackholing, so a crashed peer costs a detour, not the traffic.
func (t *fwdTable) route(dst ethernet.MAC, fromPeer string) (VMPort, *Link) {
	if port, ok := t.vms[dst]; ok {
		return port, nil
	}
	if peer, ok := t.rules[dst]; ok && peer != fromPeer {
		if l := t.links[peer]; l != nil {
			return nil, l
		}
	}
	if t.regs != nil {
		if peer, ok := t.regs.get(dst); ok && peer != fromPeer {
			if l := t.links[peer]; l != nil {
				return nil, l
			}
		}
	}
	if t.learned != nil {
		if peer, ok := t.learned.get(dst); ok && peer != fromPeer {
			if l := t.links[peer]; l != nil {
				return nil, l
			}
		}
	}
	if l := t.ringRoute(dst, fromPeer); l != nil {
		return nil, l
	}
	if t.deflt != "" && t.deflt != fromPeer {
		return nil, t.links[t.deflt]
	}
	return nil, nil
}

// leaf reports whether this daemon is a leaf of the flood tree: it has a
// default route and is not itself a proxy ring member (a ring member may
// default to another member, but it still serves its hosts as a hub).
func (t *fwdTable) leaf() bool {
	return t.deflt != "" && (t.ring == nil || !t.ring.Contains(t.self))
}

// ringRoute picks the link toward the proxy owning dst's hash slice —
// the sharded replacement for the single star default. When the owner is
// unreachable (its crash has not yet shrunk the local ring) the walk
// continues clockwise to the owner's successors, which is exactly where
// the slice re-homes, so in-flight traffic chases the new owner. The walk
// stops at this daemon itself: an owner with no registration for dst has
// nowhere better to send the frame (bouncing it to a successor would
// orbit the ring until TTL death). Deliberately closure-free: a heap
// allocation here would cost the relay path its 0 allocs/frame.
func (t *fwdTable) ringRoute(dst ethernet.MAC, fromPeer string) *Link {
	r := t.ring
	if r == nil {
		return nil
	}
	n := len(r.points)
	start := r.succ(macPoint(dst))
	for i := 0; i < n; i++ {
		m := r.members[r.points[(start+i)%n].member]
		if m == t.self {
			return nil
		}
		if m == fromPeer {
			continue
		}
		if l := t.links[m]; l != nil {
			return l
		}
	}
	return nil
}

// mutateFwd installs a new forwarding snapshot: clone, apply, swap. All
// control-plane mutations and the learning applier funnel through here,
// serialized by d.mu.
func (d *Daemon) mutateFwd(fn func(*fwdTable)) {
	d.mu.Lock()
	d.swapFwdLocked(fn)
	d.mu.Unlock()
}

// swapFwdLocked is mutateFwd for callers already holding d.mu.
func (d *Daemon) swapFwdLocked(fn func(*fwdTable)) {
	t := d.fwd.Load().clone()
	fn(t)
	d.fwd.Store(t)
	d.met.SnapshotSwaps.Inc()
}

// learn records that src was seen arriving from fromPeer (bridge
// learning). The steady state — the location already recorded — is a
// lock-free striped-map read. A location change (first sighting, VM
// migration) copies one bucket of the striped table, never the whole
// table and never the forwarding snapshot, so even a proxy shard holding
// its slice of a 100k-VM overlay learns new sources in O(bucket).
func (d *Daemon) learn(src ethernet.MAC, fromPeer string) {
	lt := d.fwd.Load().learned
	if lt == nil {
		return
	}
	if p, ok := lt.get(src); ok && p == fromPeer {
		return
	}
	lt.set(src, fromPeer)
}

// feedRing is the bounded queue between the forwarding goroutines and the
// Wren analyzer goroutine. Producers never block: when the ring is full
// the oldest record is dropped and counted, so measurement backpressure
// can never stall forwarding — the property that keeps the measurement
// "free". A single consumer drains whole batches, locking once per batch.
type feedRing struct {
	mu   sync.Mutex
	buf  []pcap.Record
	head int // index of the oldest record
	n    int // occupancy

	notify chan struct{} // cap 1: consumer wake-up
	stop   chan struct{} // closed by Daemon.Close
}

// defaultFeedRingCap bounds pending Wren records per daemon (~80 B each).
const defaultFeedRingCap = 8192

func newFeedRing(capacity int) *feedRing {
	if capacity <= 0 {
		capacity = defaultFeedRingCap
	}
	return &feedRing{
		buf:    make([]pcap.Record, capacity),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
}

// push enqueues one record, evicting the oldest when full, and reports
// whether an eviction happened.
func (r *feedRing) push(rec pcap.Record) (dropped bool) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		r.n--
		dropped = true
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = rec
	r.n++
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
	return dropped
}

// drain moves everything pending into scratch (grown if needed) and
// returns the filled batch; order is preserved.
func (r *feedRing) drain(scratch []pcap.Record) []pcap.Record {
	r.mu.Lock()
	n := r.n
	if n == 0 {
		r.mu.Unlock()
		return scratch[:0]
	}
	if cap(scratch) < n {
		scratch = make([]pcap.Record, 0, len(r.buf))
	}
	out := scratch[:n]
	first := len(r.buf) - r.head
	if first >= n {
		copy(out, r.buf[r.head:r.head+n])
	} else {
		copy(out, r.buf[r.head:])
		copy(out[first:], r.buf[:n-first])
	}
	r.head += n
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.n = 0
	r.mu.Unlock()
	return out
}

// feedLoop is the dedicated analyzer goroutine: it drains the ring in
// batches and hands them to the installed sink. It exits after a final
// drain when the ring is stopped.
func (d *Daemon) feedLoop(r *feedRing) {
	defer d.wg.Done()
	scratch := make([]pcap.Record, 0, len(r.buf))
	deliver := func() {
		batch := d.ringDrainAndDeliver(r, scratch)
		if cap(batch) > cap(scratch) {
			scratch = batch
		}
	}
	for {
		select {
		case <-r.notify:
			deliver()
		case <-r.stop:
			deliver()
			return
		}
	}
}

// ringDrainAndDeliver drains one batch and hands it to the current sink
// (records are discarded when no sink is installed).
func (d *Daemon) ringDrainAndDeliver(r *feedRing, scratch []pcap.Record) []pcap.Record {
	batch := r.drain(scratch)
	if len(batch) == 0 {
		return batch
	}
	if fn := d.wrenBatch.Load(); fn != nil {
		(*fn)(batch)
	}
	return batch
}

// msgBufs recycles the buffers in which locally originated frames (VM
// ingress, floods of VM broadcasts, probe trains) are assembled before
// they are sent. Received frames never pass through it: a transit frame
// is rewritten and sent from the link reader's own buffer.
var msgBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}
