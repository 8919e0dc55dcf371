package vnet

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// This file shards the hub. The star overlay (overlay.go) roots every
// default route at one Proxy; the mesh overlay splits the MAC space
// across N proxies with the consistent-hash ring (ring.go), links the
// proxies pairwise, and gives every daemon the same ring so frames go
// straight to the shard that owns their destination. The ring is the
// route summary — no node ever learns per-MAC state for MACs it does not
// own or host; owners learn precise locations only through the
// registration protocol below.

// Ring-registration protocol: when a daemon attaches a VM whose MAC
// hashes into another proxy's slice, it pushes a ring-register control
// message to that owner, which records MAC -> daemon in its striped
// registration table. The message is ordinary msgControl JSON,
// recognized by prefix ahead of the user control handler.
const (
	ringRegKind   = "ring-register"
	ringRegAdd    = "add"
	ringRegRemove = "remove"
)

// ringRegPrefix cheaply identifies ring registrations among control
// payloads; ringRegMsg is always marshalled with Kind first.
var ringRegPrefix = []byte(`{"kind":"ring-register"`)

type ringRegMsg struct {
	Kind   string   `json:"kind"` // must stay first: ringRegPrefix matches on it
	Action string   `json:"action"`
	MACs   []string `json:"macs"` // hex, as in controlMsg
	// Trace is the encoded obs.TraceContext of the ring transition that
	// triggered this registration (re-home, plan step), letting the owner
	// record the re-learn under the originating trace. Empty for steady
	// state announcements.
	Trace string `json:"trace,omitempty"`
}

// SetProxyRing installs (or clears, with nil) the proxy ring in the
// daemon's forwarding snapshot and re-announces local VMs to their
// owners. Installing a ring with the same membership is a no-op, so
// repeated installs are idempotent.
func (d *Daemon) SetProxyRing(r *ProxyRing) {
	d.mu.Lock()
	prev := d.fwd.Load().ring
	if prev == r || (prev != nil && r != nil && prev.version == r.version) {
		d.mu.Unlock()
		return
	}
	d.swapFwdLocked(func(t *fwdTable) { t.ring = r })
	fl, log := d.flight, d.log
	d.mu.Unlock()
	d.ringChanged(obs.TraceContext{}, prev, r, fl, log, "ring-swap")
	d.announceAll(obs.TraceContext{})
}

// Ring returns the currently installed proxy ring (nil on a pure star).
func (d *Daemon) Ring() *ProxyRing { return d.fwd.Load().ring }

// DefaultRoute returns the current default-route peer ("" when unset).
func (d *Daemon) DefaultRoute() string { return d.fwd.Load().deflt }

// dropRingMember removes peer from the installed ring — the re-home
// primitive. The read-modify-write runs under d.mu so two concurrent
// link-down events both land. Returns the shrunk ring, or nil when
// nothing changed.
func (d *Daemon) dropRingMember(ctx obs.TraceContext, peer string) *ProxyRing {
	d.mu.Lock()
	prev := d.fwd.Load().ring
	if prev == nil {
		d.mu.Unlock()
		return nil
	}
	next := prev.Without(peer)
	if next == nil {
		d.mu.Unlock()
		return nil
	}
	d.swapFwdLocked(func(t *fwdTable) { t.ring = next })
	fl, log := d.flight, d.log
	d.mu.Unlock()
	d.ringChanged(ctx, prev, next, fl, log, "ring-shrink")
	d.announceAll(ctx)
	return next
}

// ringChanged emits the metrics, flight event, and log line for a ring
// transition. With a valid ctx the event joins the distributed trace of
// whatever drove the transition (plan step, proxy loss).
func (d *Daemon) ringChanged(ctx obs.TraceContext, prev, cur *ProxyRing, fl *obs.FlightRecorder, log *slog.Logger, event string) {
	if prev != nil {
		d.met.RingRebalances.Inc()
	}
	d.met.setRingGauges(prev, cur)
	var members []string
	var version uint64
	if cur != nil {
		members = cur.Members()
		version = cur.version
	}
	fl.RecordCtx(ctx, obs.Event{
		Component: "vnet", Host: d.name, Name: event,
		Attrs: map[string]any{
			"members": append([]string(nil), members...),
			"version": fmt.Sprintf("%016x", version),
		},
	})
	if log != nil {
		log.Info(event, "members", len(members), "version", fmt.Sprintf("%016x", version))
	}
}

// announceAll (re)registers every local VM with its owning proxy,
// batching one message per owner. Best-effort: owners without a live
// link yet get the registrations when the link comes up
// (announceOwnedTo).
func (d *Daemon) announceAll(ctx obs.TraceContext) {
	t := d.fwd.Load()
	if t.ring == nil || len(t.vms) == 0 {
		return
	}
	byOwner := make(map[string][]string)
	for mac := range t.vms {
		owner := t.ring.Owner(mac)
		if owner == d.name {
			continue
		}
		byOwner[owner] = append(byOwner[owner], macToHex(mac))
	}
	for owner, macs := range byOwner {
		d.sendRingReg(ctx, owner, ringRegAdd, macs)
	}
}

// announceVM registers or withdraws one VM with its owner.
func (d *Daemon) announceVM(mac ethernet.MAC, action string) {
	t := d.fwd.Load()
	if t.ring == nil {
		return
	}
	owner := t.ring.Owner(mac)
	if owner == d.name {
		return
	}
	d.sendRingReg(obs.TraceContext{}, owner, action, []string{macToHex(mac)})
}

// announceOwnedTo pushes the registrations a specific peer owns — the
// link-up catch-up for registrations announceAll/announceVM could not
// deliver, and the re-learn half of re-home (the successor that
// inherited a dead proxy's slice gets the locations as soon as the ring
// shrinks, because announceAll targets it).
func (d *Daemon) announceOwnedTo(peer string) {
	t := d.fwd.Load()
	if t.ring == nil || len(t.vms) == 0 || !t.ring.Contains(peer) {
		return
	}
	var macs []string
	for mac := range t.vms {
		if t.ring.Owner(mac) == peer {
			macs = append(macs, macToHex(mac))
		}
	}
	if len(macs) > 0 {
		d.sendRingReg(obs.TraceContext{}, peer, ringRegAdd, macs)
	}
}

// sendRingReg marshals and pushes one registration message; errors are
// dropped by design (no link yet — the link-up hook re-announces).
func (d *Daemon) sendRingReg(ctx obs.TraceContext, owner, action string, macs []string) {
	sort.Strings(macs) // deterministic wire form, for replayable chaos runs
	raw, err := json.Marshal(ringRegMsg{Kind: ringRegKind, Action: action, MACs: macs, Trace: ctx.Encode()})
	if err != nil {
		return
	}
	_ = d.SendControl(owner, raw)
}

// handleRingReg applies a registration push to the striped table. The
// table is shared across forwarding snapshots, so no snapshot swap
// happens — a registration burst at an owner never stalls its data
// plane.
func (d *Daemon) handleRingReg(fromPeer string, payload []byte) {
	var msg ringRegMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	t := d.fwd.Load()
	if t.regs == nil {
		return
	}
	n := 0
	for _, h := range msg.MACs {
		mac, err := hexToMAC(h)
		if err != nil {
			continue
		}
		switch msg.Action {
		case ringRegAdd:
			t.regs.set(mac, fromPeer)
			n++
		case ringRegRemove:
			t.regs.removeIf(mac, fromPeer)
			n++
		}
	}
	if n > 0 {
		d.met.RingRegistrations.Add(uint64(n))
	}
	if ctx, ok := obs.ParseTraceContext(msg.Trace); ok && n > 0 {
		// The re-learn half of a traced ring transition: record it at the
		// owner so the collector sees where the registrations landed.
		d.mu.RLock()
		fl := d.flight
		d.mu.RUnlock()
		fl.RecordCtx(ctx, obs.Event{
			Component: "vnet", Host: d.name, Phase: "apply", Name: "ring-register",
			Attrs: map[string]any{"from": fromPeer, "action": msg.Action, "macs": n},
		})
	}
}

// EnableRingRehome installs the proxy-loss policy as the daemon's
// link-down handler: when a ring member's link dies, drop it from the
// local ring (consistent hashing re-homes only the dead member's slices,
// and announceAll re-registers local VMs with the inheriting
// successors), and when the dead member was this daemon's home proxy,
// re-home the default route to the shrunk ring's assignment. onRehome,
// when non-nil, observes home-proxy changes (tests and vnetd logging).
func (d *Daemon) EnableRingRehome(onRehome func(dead, newHome string)) {
	d.SetLinkDownHandler(func(peer string) {
		// One trace per proxy-loss reaction: the ring-shrink here, the
		// registrations it pushes to inheriting successors (and their
		// ring-register events), and any re-home all correlate, so the
		// collector can replay the whole storm from this node outward.
		ctx := obs.NewTrace()
		next := d.dropRingMember(ctx, peer)
		if next == nil {
			return
		}
		if d.DefaultRoute() == peer {
			home := next.HomeProxy(d.name)
			d.SetDefaultRoute(home)
			d.mu.RLock()
			fl := d.flight
			d.mu.RUnlock()
			fl.RecordCtx(ctx, obs.Event{
				Component: "vnet", Host: d.name, Name: "re-home",
				Attrs: map[string]any{"dead": peer, "home": home},
			})
			if onRehome != nil {
				onRehome(peer, home)
			}
		}
	})
}

// NewMesh builds and starts a sharded overlay: len(proxyNames) proxies,
// each with its own shard GlobalView, linked pairwise into a full mesh;
// one daemon per host name, linked to every proxy, sharing one
// consistent-hash ring; every daemon's default route is its home proxy
// (HomeProxy on the same ring), and re-home-on-proxy-loss is armed
// everywhere. A one-proxy mesh degenerates to the star.
func NewMesh(proxyNames, hostNames []string, vttifCfg vttif.Config, wrenCfg wren.Config) (*Overlay, error) {
	ring, err := NewProxyRing(proxyNames, 0)
	if err != nil {
		return nil, err
	}
	o := &Overlay{stopCh: make(chan struct{}), Ring: ring}
	for _, name := range proxyNames {
		p, err := newNode(name, wrenCfg)
		if err != nil {
			o.Close()
			return nil, err
		}
		v := NewGlobalView(vttifCfg)
		p.Daemon.SetControlHandler(v.HandleControl)
		o.Proxies = append(o.Proxies, p)
		o.Views = append(o.Views, v)
	}
	o.Proxy, o.View = o.Proxies[0], o.Views[0]
	// Proxy full mesh: every proxy can reach every shard directly.
	for i, a := range o.Proxies {
		for _, b := range o.Proxies[i+1:] {
			if _, err := a.Daemon.Connect(b.addr); err != nil {
				o.Close()
				return nil, err
			}
		}
	}
	for _, p := range o.Proxies {
		p.Daemon.SetProxyRing(ring)
		p.Daemon.EnableRingRehome(nil)
	}
	for _, name := range hostNames {
		n, err := newNode(name, wrenCfg)
		if err != nil {
			o.Close()
			return nil, err
		}
		o.Nodes = append(o.Nodes, n)
		for _, p := range o.Proxies {
			if _, err := n.Daemon.Connect(p.addr); err != nil {
				o.Close()
				return nil, err
			}
		}
		n.Daemon.SetProxyRing(ring)
		n.Daemon.SetDefaultRoute(ring.HomeProxy(name))
		n.Daemon.EnableRingRehome(nil)
	}
	return o, nil
}

// ProxyNode returns the named proxy (nil if unknown).
func (o *Overlay) ProxyNode(name string) *Node {
	for _, p := range o.Proxies {
		if p.Daemon.Name() == name {
			return p
		}
	}
	return nil
}

// Member returns the named node, proxy or host (nil if unknown).
func (o *Overlay) Member(name string) *Node {
	if n := o.Node(name); n != nil {
		return n
	}
	return o.ProxyNode(name)
}

// proxySelfMeasure folds one proxy's own Wren observations into its shard
// view (it has no link to push reports through).
func proxySelfMeasure(p *Node, v *GlobalView) {
	p.Wren.Poll()
	for _, po := range p.Wren.Scan() {
		v.Store.Put(po.Record())
	}
}
