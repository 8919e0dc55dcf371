package vnet

import (
	"errors"
	"sync/atomic"
)

// Test-only exports. The scale scenario (scale_test.go) and the flood-tree
// tests use a synchronous in-memory transport and bulk link installation,
// so a 10k-daemon overlay assembles in seconds and runs deterministically
// — no sockets, no read loops, no timers.

var errMemLinkDown = errors.New("vnet: mem link down")

// memTransport delivers each message by invoking the peer daemon's
// receiveDatagram on the caller's goroutine: the entire forwarding chain —
// relay hops, acks, final VM delivery — completes before send returns,
// which makes a scenario a pure function of its seed.
//
// Single-injector only. Two goroutines injecting frames concurrently can
// deadlock: each holds its own egress link's writeMu for the whole
// synchronous chain, and the chain's far end acks back into a link whose
// writeMu the other goroutine may hold.
type memTransport struct {
	peer     *Daemon
	peerLink atomic.Pointer[Link] // the peer's Link for this side
	down     atomic.Bool
}

func (m *memTransport) send(typ byte, payload []byte) error {
	if m.down.Load() {
		return errMemLinkDown
	}
	l := m.peerLink.Load()
	if l == nil {
		return errMemLinkDown
	}
	m.peer.receiveDatagram(l, typ, payload)
	return nil
}

func (m *memTransport) close()       { m.down.Store(true) }
func (m *memTransport) kind() string { return "mem" }

// MemLinkPair builds, without installing, a synchronous in-memory link
// pair between a and b. Install both sides with InstallLinks.
func MemLinkPair(a, b *Daemon) (onA, onB *Link) {
	ta := &memTransport{peer: b}
	tb := &memTransport{peer: a}
	onA = &Link{daemon: a, peer: b.name, tr: ta}
	onB = &Link{daemon: b, peer: a.name, tr: tb}
	ta.peerLink.Store(onB)
	tb.peerLink.Store(onA)
	return onA, onB
}

// InstallLinks registers prebuilt links in one forwarding-snapshot swap —
// the bulk form of registerLink. Wiring a 10k-host fabric through
// registerLink would clone the proxy's links map once per host (O(D^2)
// setup work); this costs one clone per daemon.
func (d *Daemon) InstallLinks(links []*Link) {
	d.mutateFwd(func(t *fwdTable) {
		for _, l := range links {
			t.links[l.peer] = l
		}
	})
}

// SetWrenFeedCapacity overrides the feed-ring capacity (records). It must
// be called before the first SetWrenBatchFeed; afterwards it has no
// effect. Zero or negative keeps the default (8192).
func (d *Daemon) SetWrenFeedCapacity(n int) {
	d.mu.Lock()
	d.feedCap = n
	d.mu.Unlock()
}

// SeqState returns the link's Wren sequence bookkeeping: cumulative bytes
// sent, received, and acknowledged by the peer.
func (l *Link) SeqState() (sent, recv, acked int64) {
	return l.sentBytes.Load(), l.recvBytes.Load(), l.ackedBytes.Load()
}
