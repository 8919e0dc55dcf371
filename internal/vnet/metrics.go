package vnet

import (
	"freemeasure/internal/obs"
)

// Metrics holds the daemon's exported counters. The zero value (all-nil
// collectors) is the uninstrumented state: the forwarding hot path updates
// the fields unconditionally and pays only nil checks when no registry is
// attached. Attach with Daemon.SetMetrics before Listen/Connect — the
// fields are published to the link goroutines without further locking.
type Metrics struct {
	reg *obs.Registry // mints per-link series; nil disables them

	FramesFromVMs   *obs.Counter // vnet_frames_from_vms_total
	FramesDelivered *obs.Counter // vnet_frames_delivered_total
	FramesForwarded *obs.Counter // vnet_frames_forwarded_total
	FramesFlooded   *obs.Counter // vnet_frames_flooded_total
	FramesDropped   *obs.Counter // vnet_frames_dropped_total
	TTLExpired      *obs.Counter // vnet_ttl_expired_total
	BytesSent       *obs.Counter // vnet_bytes_sent_total
	LinkReads       *obs.Counter // vnet_link_reads_total
	AcksSent        *obs.Counter // vnet_acks_sent_total
	Handshakes      *obs.Counter // vnet_handshakes_total
	LinksOpened     *obs.Counter // vnet_link_up_total
	LinksClosed     *obs.Counter // vnet_link_down_total
	UDPDatagramsRx  *obs.Counter // vnet_udp_datagrams_rx_total
	UDPDatagramsTx  *obs.Counter // vnet_udp_datagrams_tx_total
	UDPMalformed    *obs.Counter // vnet_udp_malformed_total
	SnapshotSwaps   *obs.Counter // vnet_fwd_snapshot_swaps_total
	WrenFeedDropped *obs.Counter // wren_feed_ring_dropped_total

	RingRebalances    *obs.Counter // vnet_proxy_ring_rebalances_total
	RingRegistrations *obs.Counter // vnet_proxy_ring_registrations_total
}

// NewMetrics registers the daemon metrics on reg (a nil reg yields the
// zero value, i.e. no instrumentation). Attach one registry per daemon if
// per-link series must not aggregate across daemons.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		reg: reg,
		FramesFromVMs: reg.Counter("vnet_frames_from_vms_total",
			"Ethernet frames injected by locally attached VMs."),
		FramesDelivered: reg.Counter("vnet_frames_delivered_total",
			"Frames delivered to locally attached VMs."),
		FramesForwarded: reg.Counter("vnet_frames_forwarded_total",
			"Frames forwarded to a peer daemon over an overlay link."),
		FramesFlooded: reg.Counter("vnet_frames_flooded_total",
			"Broadcast copies sent to peer daemons along the flood tree."),
		FramesDropped: reg.Counter("vnet_frames_dropped_total",
			"Frames dropped (no route, dead link, or send failure)."),
		TTLExpired: reg.Counter("vnet_ttl_expired_total",
			"Frames discarded because the overlay hop limit expired."),
		BytesSent: reg.Counter("vnet_bytes_sent_total",
			"Payload bytes sent over overlay links (frames, all peers)."),
		LinkReads: reg.Counter("vnet_link_reads_total",
			"Read syscalls issued by TCP link readers; frames received / reads is the live receive coalescing ratio."),
		AcksSent: reg.Counter("vnet_acks_sent_total",
			"Cumulative ACKs sent: one per TCP read batch that brought in a frame, one per frame on datagram links."),
		Handshakes: reg.Counter("vnet_handshakes_total",
			"Completed link handshakes (TCP hello exchanges and virtual-UDP hellos)."),
		LinksOpened: reg.Counter("vnet_link_up_total",
			"Links registered (a reconnect counts again)."),
		LinksClosed: reg.Counter("vnet_link_down_total",
			"Links torn down."),
		UDPDatagramsRx: reg.Counter("vnet_udp_datagrams_rx_total",
			"Datagrams received on the virtual-UDP endpoint."),
		UDPDatagramsTx: reg.Counter("vnet_udp_datagrams_tx_total",
			"Datagrams sent from the virtual-UDP endpoint."),
		UDPMalformed: reg.Counter("vnet_udp_malformed_total",
			"Datagrams discarded for bad framing (short or length mismatch)."),
		SnapshotSwaps: reg.Counter("vnet_fwd_snapshot_swaps_total",
			"Forwarding-snapshot installs (control-plane mutations and batched learning applies)."),
		WrenFeedDropped: reg.Counter("wren_feed_ring_dropped_total",
			"Capture records evicted from the Wren feed ring because the analyzer fell behind."),
		RingRebalances: reg.Counter("vnet_proxy_ring_rebalances_total",
			"Proxy-ring membership changes applied to the forwarding snapshot after its first ring (re-homes and ring re-installs)."),
		RingRegistrations: reg.Counter("vnet_proxy_ring_registrations_total",
			"Ring registration entries applied at this daemon as a slice owner (adds and removes)."),
	}
}

// setRingGauges publishes the per-shard ownership shares after a ring
// transition: each current member's fraction of the hash circle, and a
// zero for members that just left (so a dead proxy's share visibly drops
// on dashboards instead of going stale). Also maintains the member-count
// gauge.
func (m Metrics) setRingGauges(prev, cur *ProxyRing) {
	if m.reg == nil {
		return
	}
	const shareName = "vnet_proxy_ring_ownership_share"
	const shareHelp = "Fraction of the MAC hash circle owned by each proxy-ring member."
	members := 0
	if cur != nil {
		members = cur.Len()
		for _, p := range cur.Members() {
			m.reg.Gauge(shareName, shareHelp, "member", p).Set(cur.Share(p))
		}
	}
	if prev != nil {
		for _, p := range prev.Members() {
			if cur == nil || !cur.Contains(p) {
				m.reg.Gauge(shareName, shareHelp, "member", p).Set(0)
			}
		}
	}
	m.reg.Gauge("vnet_proxy_ring_members",
		"Current proxy-ring member count (0 when no ring is installed).").Set(float64(members))
}

// linkCounters mints the per-peer frames/bytes series for a new link.
func (m Metrics) linkCounters(peer string) (frames, bytes *obs.Counter) {
	if m.reg == nil {
		return nil, nil
	}
	return m.reg.Counter("vnet_link_frames_sent_total",
			"Frames sent to one peer over its link.", "peer", peer),
		m.reg.Counter("vnet_link_bytes_sent_total",
			"Payload bytes sent to one peer over its link.", "peer", peer)
}

// SetMetrics attaches metrics to the daemon and registers the live-link
// gauge. Call it before Listen/Connect/ListenUDP so the link goroutines
// observe the collectors; per-link series exist for links registered after
// the call.
func (d *Daemon) SetMetrics(m Metrics) {
	d.mu.Lock()
	d.met = m
	d.mu.Unlock()
	if m.reg != nil {
		m.reg.GaugeFunc("vnet_links_active",
			"Currently registered overlay links.",
			func() float64 {
				return float64(len(d.fwd.Load().links))
			}, "daemon", d.name)
	}
}
