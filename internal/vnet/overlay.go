package vnet

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// This file assembles whole overlays: the initial star around the Proxy
// (paper section 3.1) and the control plane that carries each daemon's
// VTTIF local matrix and Wren measurements to the Proxy (section 3.3),
// giving it the global application view and physical-network view VADAPT
// consumes.

// controlMsg is the JSON payload of msgControl pushes.
type controlMsg struct {
	Kind        string      `json:"kind"` // "vttif" or "wren"
	IntervalSec float64     `json:"intervalSec,omitempty"`
	Pairs       []pairBytes `json:"pairs,omitempty"`
	// Wren is the sender's Monitor.Scan, one record per measured remote.
	Wren []coord.Record `json:"wren,omitempty"`
}

type pairBytes struct {
	Src   string `json:"src"` // hex MAC
	Dst   string `json:"dst"`
	Bytes uint64 `json:"bytes"`
}

func macToHex(m ethernet.MAC) string { return hex.EncodeToString(m[:]) }

func hexToMAC(s string) (ethernet.MAC, error) {
	var m ethernet.MAC
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 6 {
		return m, fmt.Errorf("vnet: bad mac %q", s)
	}
	copy(m[:], b)
	return m, nil
}

// GlobalView lives at the Proxy: the global traffic matrix (via the VTTIF
// aggregator) plus the available bandwidth and latency between every pair
// of VNET daemons that exchange traffic. "In practice, only those pairs
// whose VNET daemons exchange messages have entries."
type GlobalView struct {
	Agg *vttif.Aggregator
	// Store holds the freshest record of every measured path: the Wren
	// reports that arrive as control messages, the Proxy's own monitor,
	// and whatever else the Proxy measures (a hub prober's active records).
	Store *coord.MemStore
}

// NewGlobalView creates an empty view.
func NewGlobalView(cfg vttif.Config) *GlobalView {
	return &GlobalView{Agg: vttif.NewAggregator(cfg), Store: coord.NewMemStore()}
}

// HandleControl is the Proxy's control handler: mount it with
// SetControlHandler.
func (g *GlobalView) HandleControl(fromPeer string, payload []byte) {
	var msg controlMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	switch msg.Kind {
	case "vttif":
		local := make(map[vttif.Pair]uint64, len(msg.Pairs))
		for _, p := range msg.Pairs {
			src, err1 := hexToMAC(p.Src)
			dst, err2 := hexToMAC(p.Dst)
			if err1 != nil || err2 != nil {
				continue
			}
			local[vttif.Pair{Src: src, Dst: dst}] = p.Bytes
		}
		// A malformed interval makes the whole report meaningless (the
		// aggregator cannot turn bytes into a rate), so the report is
		// dropped; the aggregator counts the rejection in
		// vttif_bad_interval_reports_total.
		if err := g.Agg.Update(fromPeer, local, msg.IntervalSec); err != nil {
			return
		}
	case "wren":
		// A report describes the sender's own outgoing paths, and the link
		// it arrived on — not the payload — says who the sender is. The
		// observation time stays the reporter's: stamping receipt time here
		// would make a long-silent path look fresh at every report. The
		// store refuses a record without one (a latency-only row, which no
		// estimate reads).
		for _, rec := range msg.Wren {
			if rec.Path.To == "" {
				continue
			}
			rec.Path.From = fromPeer
			g.Store.Put(rec)
		}
	}
}

// Node is one assembled overlay member: a daemon plus its Wren monitor and
// reporting machinery.
type Node struct {
	Daemon *Daemon
	Wren   *wren.Monitor
	addr   string
}

// Addr returns the daemon's listen address.
func (n *Node) Addr() string { return n.addr }

// Overlay is a running overlay on localhost: the classic star (NewStar,
// one proxy) or the sharded mesh (NewMesh, N proxies on a consistent-hash
// ring). Proxy/View always alias Proxies[0]/Views[0] so star-era callers
// keep working.
type Overlay struct {
	Proxy     *Node
	Proxies   []*Node // all proxy shards; [0] == Proxy
	Nodes     []*Node // host daemons (excludes the proxies)
	View      *GlobalView
	Views     []*GlobalView // per-shard views; [0] == View
	Ring      *ProxyRing    // nil on a pure star
	stopCh    chan struct{}
	stopOnce  sync.Once
	reporters sync.WaitGroup
}

// NewStar builds and starts a star overlay: a Proxy plus one daemon per
// name, each listening on 127.0.0.1, connected to the Proxy, defaulting
// unknown destinations to it, with a Wren monitor observing its links.
func NewStar(names []string, vttifCfg vttif.Config, wrenCfg wren.Config) (*Overlay, error) {
	o := &Overlay{View: NewGlobalView(vttifCfg), stopCh: make(chan struct{})}
	proxy, err := newNode("proxy", wrenCfg)
	if err != nil {
		return nil, err
	}
	proxy.Daemon.SetControlHandler(o.View.HandleControl)
	o.Proxy = proxy
	o.Proxies = []*Node{proxy}
	o.Views = []*GlobalView{o.View}
	for _, name := range names {
		n, err := newNode(name, wrenCfg)
		if err != nil {
			o.Close()
			return nil, err
		}
		if _, err := n.Daemon.Connect(proxy.addr); err != nil {
			o.Close()
			return nil, err
		}
		n.Daemon.SetDefaultRoute("proxy")
		o.Nodes = append(o.Nodes, n)
	}
	return o, nil
}

// newNode starts one overlay member: a daemon listening on 127.0.0.1 with
// a Wren monitor fed from its links.
func newNode(name string, wrenCfg wren.Config) (*Node, error) {
	d := NewDaemon(name)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := wren.NewMonitor(name, wrenCfg)
	d.SetWrenBatchFeed(m.FeedAll)
	return &Node{Daemon: d, Wren: m, addr: addr}, nil
}

// Node returns the named non-proxy node.
func (o *Overlay) Node(name string) *Node {
	for _, n := range o.Nodes {
		if n.Daemon.Name() == name {
			return n
		}
	}
	return nil
}

// ConnectPair adds a direct link between two member daemons (a VADAPT
// topology change) and returns an error if either is unknown.
func (o *Overlay) ConnectPair(a, b string) error {
	na, nb := o.Node(a), o.Node(b)
	if na == nil || nb == nil {
		return fmt.Errorf("vnet: unknown node %s or %s", a, b)
	}
	_, err := na.Daemon.Connect(nb.addr)
	return err
}

// DisconnectPair removes the direct link between two member daemons (both
// sides of the table; the TCP teardown races are benign because Disconnect
// is idempotent). It reports whether either side had a link.
func (o *Overlay) DisconnectPair(a, b string) (bool, error) {
	na, nb := o.Node(a), o.Node(b)
	if na == nil || nb == nil {
		return false, fmt.Errorf("vnet: unknown node %s or %s", a, b)
	}
	hadA := na.Daemon.Disconnect(b)
	hadB := nb.Daemon.Disconnect(a)
	return hadA || hadB, nil
}

// StartReporting launches each node's periodic control pushes to its
// home proxy (the star's single Proxy, or the ring assignment in a
// mesh): the VTTIF local matrix and the local Wren measurements, every
// interval. It also polls each proxy's own Wren monitor into its shard
// view (a proxy sees the proxy->host legs of every path through it).
func (o *Overlay) StartReporting(interval time.Duration) {
	for _, n := range o.Nodes {
		// No fixed peer: reports follow the default route, so they land on
		// the shard that survives a re-home.
		o.every(interval, NewReporter(Reporting{Daemon: n.Daemon, Wren: n.Wren}, interval).ReportOnce)
	}
	for i, p := range o.Proxies {
		v := o.Views[i]
		o.every(interval, func() { proxySelfMeasure(p, v) })
	}
}

// every runs fn each interval on its own goroutine until Close.
func (o *Overlay) every(interval time.Duration, fn func()) {
	o.reporters.Add(1)
	go func() {
		defer o.reporters.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-o.stopCh:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// Close stops reporting and shuts every daemon down.
func (o *Overlay) Close() {
	o.stopOnce.Do(func() { close(o.stopCh) })
	o.reporters.Wait()
	for _, n := range o.Nodes {
		n.Daemon.Close()
	}
	for _, p := range o.Proxies {
		p.Daemon.Close()
	}
}
