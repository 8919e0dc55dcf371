package control

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// Snapshot is one sensed state of the system: the adaptation problem plus
// the naming context the controller needs to turn an abstract plan back
// into daemon names and VM MACs.
type Snapshot struct {
	Problem *vadapt.Problem
	// Hosts maps topology.NodeID (the index) to the daemon name.
	Hosts []string
	// VMs maps vadapt.VMID (the index) to the VM's MAC.
	VMs []ethernet.MAC
	// Mapping is where each VM currently lives (index = vadapt.VMID).
	Mapping []topology.NodeID
	// Provenance records, per sensed host pair, which measurement (or
	// fallback) produced the estimate — the sense layer's contribution to
	// the decision flight recorder. Sources that cannot attribute their
	// estimates leave it nil.
	Provenance []PathProvenance
	// Deltas is the VTTIF delta stream drained at sense time: edges that
	// appeared or vanished and rates that moved beyond the aggregator's
	// emission threshold since the previous snapshot. Nil when the source
	// has no delta stream (static and SOAP sources).
	Deltas []vttif.Delta
	// DeltasReset reports that the delta stream overflowed and dropped
	// events, so Deltas is only a lower bound on what changed; consumers
	// should treat the cycle as a regime change.
	DeltasReset bool
}

// PathProvenance explains one host-pair estimate: the numbers the decide
// phase saw, plus where they came from. Estimates are only trustworthy
// alongside the observations that produced them, so this is what
// /debug/events and /debug/state surface when an operator asks why a
// mapping was chosen.
type PathProvenance struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Mbps float64 `json:"mbps"`
	// LatencyMs is the latency fed to the problem graph.
	LatencyMs float64 `json:"latency_ms"`
	// Source is how the estimate was obtained: "direct" (a Wren
	// measurement in the demanded direction), "reverse" (the opposite
	// direction's measurement, used because passive measurement only sees
	// directions the application sends in), "map" (an entry from the
	// coordination tier's published bandwidth map), "active-probe" (a
	// record of kind "active", stored by a hub prober), "hub-legs"
	// (composed from the two star legs through the hub), or "default"
	// (nothing measured). Among the records of a direction the freshest
	// observation answers, whichever route delivered it.
	Source string `json:"source"`
	// Kind and Quality describe the Wren estimator that produced a
	// measured value (kind "active" for an active probe, "" / 0 for
	// fallbacks).
	Kind    string  `json:"kind,omitempty"`
	Quality float64 `json:"quality,omitempty"`
	// AgeSec is how stale the measurement was at sense time (0 when the
	// measurement carries no timestamp or nothing was measured).
	AgeSec float64 `json:"age_sec,omitempty"`
}

// hostIndex inverts Hosts.
func (s *Snapshot) hostIndex() map[string]topology.NodeID {
	idx := make(map[string]topology.NodeID, len(s.Hosts))
	for i, n := range s.Hosts {
		idx[n] = topology.NodeID(i)
	}
	return idx
}

// ProblemSource senses the system, producing a fresh Snapshot per control
// cycle. Implementations must return a self-consistent snapshot: Mapping
// and VMs the same length as Problem.NumVMs, Hosts the same length as the
// problem's host graph.
type ProblemSource interface {
	Snapshot() (*Snapshot, error)
}

// VMInfo is one VM as a sense-layer sees it: its MAC and the daemon it is
// currently attached to.
type VMInfo struct {
	MAC  ethernet.MAC
	Host string
}

// ViewSource builds snapshots from the Proxy's live GlobalView — the
// paper's "free" path: the VTTIF traffic matrix supplies the demands and
// the Wren measurements supply the host graph, with the defaults where
// nothing has been measured yet.
type ViewSource struct {
	// View is the hub's global view. On a proxy ring each host reports to
	// its home proxy only, so a ring member's view holds its own shard; the
	// published bandwidth map (Map) is the cross-shard route for bandwidth.
	View *vnet.GlobalView
	// Hosts returns the ordered daemon names (index = topology.NodeID).
	Hosts func() []string
	// VMs returns the VMs in vadapt.VMID order with their current hosts.
	VMs func() []VMInfo
	// Hub is the star hub's daemon name, used to compose unmeasured paths
	// from their two star legs (default "proxy").
	Hub string
	// Fusion, when non-nil, asks for active measurements where the passive
	// plane has nothing fresh: a pair whose answer is the default or older
	// than Fusion.StaleAfter is kicked and read again. Active probing costs
	// the path real bytes, so it is the exception, not the rule.
	Fusion *Fusion
	// Map, when non-nil, returns the latest published coordination-tier
	// bandwidth map (nil when none has been published or fetched yet). Its
	// entries compete with the live views' records by observation time.
	Map func() *coord.BandwidthMap
	// now is the sense clock (time.Now when nil).
	now func() time.Time
}

// Fusion is the passive/active policy: passive (free) estimates by
// default, an active measurement only for a pair the passive plane has
// nothing fresh for.
type Fusion struct {
	// StaleAfter is the age beyond which a pair's answer is kicked
	// (default 30s).
	StaleAfter time.Duration
	// Kick asks for an active measurement of the pair without blocking. An
	// implementation Puts what it already holds into a sensed view's store,
	// where the read that follows finds it, and starts probing for a later
	// cycle. HubProber.Kick is the hub daemon's implementation.
	Kick func(from, to string)
}

func (f *Fusion) staleAfter() float64 {
	if f.StaleAfter <= 0 {
		return 30
	}
	return f.StaleAfter.Seconds()
}

// senseTime reads the sense clock, time.Now when none is injected.
func senseTime(now func() time.Time) int64 {
	if now == nil {
		return time.Now().UnixNano()
	}
	return now().UnixNano()
}

// sense is the per-Snapshot sensing context: the record lookup, the
// published map and the sense time are resolved once, not once per host
// pair, and every pair is answered by the same rule (freshest).
type sense struct {
	// store is the record lookup: the view's store, or SOAPSource's
	// endpoints.
	store  func(coord.Path) (coord.Record, bool)
	bwmap  *coord.BandwidthMap // nil when none has been published
	hub    string              // "" when there is no star to compose legs through
	fusion *Fusion
	now    int64 // the sense time, unix nanoseconds
}

// The defaults: the assumed capacity and latency of a path until Wren has
// measured it, the same for ViewSource and SOAPSource.
const (
	defaultLinkMbps  = 100
	defaultLatencyMs = 1
)

// newSense resolves the source's configuration for one snapshot: the
// view's store, and the map if one has been published.
func (s *ViewSource) newSense() *sense {
	sn := &sense{store: s.View.Store.Get, hub: cmp.Or(s.Hub, "proxy"), fusion: s.Fusion, now: senseTime(s.now)}
	if s.Map != nil {
		sn.bwmap = s.Map()
	}
	return sn
}

// ageSec is how long before the sense time an observation stamped at (ns)
// was made, 0 when it carries no timestamp.
func (sn *sense) ageSec(at int64) float64 {
	if at == 0 {
		return 0
	}
	return float64(sn.now-at) / 1e9
}

// freshest is the one rule for which record answers a pair: of the
// records with a bandwidth that the store and the map hold for the
// demanded direction, the one observed last; with none, the same for the
// reverse direction. Overlay paths are near-symmetric, so the reverse
// measurement beats a fabricated default: passive measurement only ever
// sees the direction the application sends in, and an optimistic default
// on the silent reverse direction makes swapping a VM pair look like a
// large objective gain when it changes nothing.
//
// A tie in At goes to the store before the map, so records without
// timestamps are read in that fixed order. A record stamped after the
// sense time (its reporter's clock runs ahead) counts as stamped at the
// sense time, for the comparison and for its age, so a skewed clock
// cannot outrank a measurement just as fresh.
func (sn *sense) freshest(from, to string) (coord.Record, string, bool) {
	for i, p := range [2]coord.Path{{From: from, To: to}, {From: to, To: from}} {
		var best coord.Record
		found, fromMap := false, false
		consider := func(r coord.Record, ok, isMap bool) {
			r.At = min(r.At, sn.now)
			if ok && r.Mbps > 0 && (!found || r.At > best.At) {
				best, found, fromMap = r, true, isMap
			}
		}
		r, ok := sn.store(p)
		consider(r, ok, false)
		r, ok = sn.bwmap.Lookup(p.From, p.To)
		consider(r, ok, true)
		switch {
		case !found:
			continue
		case best.Kind == "active":
			return best, "active-probe", true
		case fromMap:
			return best, "map", true
		case i == 0:
			return best, "direct", true
		}
		return best, "reverse", true
	}
	return coord.Record{}, "", false
}

// tail answers a pair nothing measured directly: the two star legs
// through the hub composed (bottleneck of the bandwidths, capped at the
// default; sum of the latencies; the older leg's timestamp; the
// bottleneck leg's estimator) when either leg has a record, otherwise the
// defaults. On the initial star topology all traffic transits the hub, so
// the leg measurements are what Wren actually has.
func (sn *sense) tail(from, to string) (coord.Record, string) {
	r, source := coord.Record{Mbps: defaultLinkMbps}, "default"
	if sn.hub == "" {
		return r, source
	}
	for _, leg := range [2][2]string{{from, sn.hub}, {sn.hub, to}} {
		// Either direction of a leg will do; its own source name is dropped.
		p, _, ok := sn.freshest(leg[0], leg[1])
		if !ok {
			continue
		}
		source = "hub-legs"
		if p.Mbps < r.Mbps {
			r.Mbps, r.Kind, r.Quality = p.Mbps, p.Kind, p.Quality
		}
		r.LatencyMs += p.LatencyMs
		if p.At != 0 && (r.At == 0 || p.At < r.At) {
			r.At = p.At
		}
	}
	return r, source
}

// read answers a pair: the freshest record, else the tail.
func (sn *sense) read(from, to string) (coord.Record, string) {
	if r, source, ok := sn.freshest(from, to); ok {
		return r, source
	}
	return sn.tail(from, to)
}

// estimate returns the believed (bandwidth, latency) between two daemons
// and their provenance. Whatever was read, this is the one place it
// becomes a PathProvenance — age is time since the observation, not since
// the report that carried it — and the one place fusion kicks: a kicked
// pair is read again, so a record the kick stored answers this cycle.
func (sn *sense) estimate(from, to string) (bw, lat float64, prov PathProvenance) {
	r, source := sn.read(from, to)
	if f := sn.fusion; f != nil && (source == "default" || sn.ageSec(r.At) > f.staleAfter()) {
		f.Kick(from, to)
		r, source = sn.read(from, to)
	}
	bw, lat = r.Mbps, r.LatencyMs
	if lat <= 0 {
		lat = defaultLatencyMs
	}
	prov = PathProvenance{From: from, To: to, Mbps: bw, LatencyMs: lat,
		Source: source, Kind: r.Kind, Quality: r.Quality, AgeSec: sn.ageSec(r.At)}
	return bw, lat, prov
}

// hostGraph senses every ordered host pair into the problem's complete
// host graph, keeping each pair's provenance.
func (sn *sense) hostGraph(names []string) (*topology.Graph, []PathProvenance) {
	var prov []PathProvenance
	g := topology.Complete(len(names), func(from, to topology.NodeID) (float64, float64) {
		bw, lat, p := sn.estimate(names[from], names[to])
		prov = append(prov, p)
		return bw, lat
	})
	for i, name := range names {
		g.SetName(topology.NodeID(i), name)
	}
	return g, prov
}

// Snapshot implements ProblemSource.
func (s *ViewSource) Snapshot() (*Snapshot, error) {
	names := s.Hosts()
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("control: no hosts")
	}
	sn := s.newSense()
	g, prov := sn.hostGraph(names)
	idx := make(map[string]topology.NodeID, n)
	for i, name := range names {
		idx[name] = topology.NodeID(i)
	}
	vms := s.VMs()
	if len(vms) > n {
		return nil, fmt.Errorf("control: %d VMs exceed %d hosts", len(vms), n)
	}
	macs := make([]ethernet.MAC, len(vms))
	mapping := make([]topology.NodeID, len(vms))
	macToVM := make(map[ethernet.MAC]vadapt.VMID, len(vms))
	for i, v := range vms {
		host, ok := idx[v.Host]
		if !ok {
			return nil, fmt.Errorf("control: vm %d on unknown daemon %q", i, v.Host)
		}
		macs[i] = v.MAC
		mapping[i] = host
		macToVM[v.MAC] = vadapt.VMID(i)
	}
	var demands []vadapt.Demand
	for pair, rate := range s.View.Agg.Rates() {
		src, ok1 := macToVM[pair.Src]
		dst, ok2 := macToVM[pair.Dst]
		if !ok1 || !ok2 || src == dst {
			continue
		}
		demands = append(demands, vadapt.Demand{
			Src: src, Dst: dst, Rate: rate * 8 / 1e6, // bytes/s -> Mbit/s
		})
	}
	sortDemands(demands)
	// Drain the delta stream: what changed since the last sense, in the
	// aggregator's own words, for the decide phase's changed set.
	d, reset := s.View.Agg.Deltas()
	deltas := append([]vttif.Delta{}, d...)
	return &Snapshot{
		Problem:     &vadapt.Problem{Hosts: g, NumVMs: len(vms), Demands: demands},
		Hosts:       names,
		VMs:         macs,
		Mapping:     mapping,
		Provenance:  prov,
		Deltas:      deltas,
		DeltasReset: reset,
	}, nil
}

func sortDemands(demands []vadapt.Demand) {
	sort.Slice(demands, func(i, j int) bool {
		if demands[i].Src != demands[j].Src {
			return demands[i].Src < demands[j].Src
		}
		return demands[i].Dst < demands[j].Dst
	})
}

// SOAPSource builds snapshots by polling each host's Wren SOAP service
// for its measured bandwidth and latency to the other hosts — the sense
// path for a deployment the controller does not share a process with.
// The demand list is supplied statically (e.g. from a problem spec file):
// a remote SOAP endpoint exposes the measurement plane but not the VTTIF
// aggregate, which lives at the Proxy.
type SOAPSource struct {
	// Hosts are the daemon names in topology.NodeID order; Endpoints are
	// the matching Wren SOAP URLs.
	Hosts     []string
	Endpoints []string
	// NumVMs, Demands, and Mapping describe the (static) application.
	NumVMs  int
	Demands []vadapt.Demand
	Mapping []topology.NodeID
	// Timeout bounds each SOAP call (default 5s). Without it a single
	// unreachable or wedged endpoint would stall the sense phase — and with
	// it the whole control loop — indefinitely; with it the pair falls back
	// to the defaults for that cycle and the loop keeps cycling.
	Timeout time.Duration

	clients []*wren.Client
	// now is the sense clock (time.Now when nil).
	now func() time.Time
}

// defaultSOAPTimeout caps one sense-phase SOAP call when none is
// configured.
const defaultSOAPTimeout = 5 * time.Second

// newSense dials the endpoints on first use. Its one store is the SOAP
// lookup, read by the same rule as ViewSource's; there is no hub to
// compose legs through.
func (s *SOAPSource) newSense() *sense {
	if s.clients == nil {
		s.clients = make([]*wren.Client, len(s.Endpoints))
		for i, url := range s.Endpoints {
			s.clients[i] = wren.NewClient(url)
			s.clients[i].SetTimeout(cmp.Or(s.Timeout, defaultSOAPTimeout))
		}
	}
	return &sense{store: s.lookSOAP, now: senseTime(s.now)}
}

// Snapshot implements ProblemSource.
func (s *SOAPSource) Snapshot() (*Snapshot, error) {
	n := len(s.Hosts)
	if n == 0 || len(s.Endpoints) != n {
		return nil, fmt.Errorf("control: need one SOAP endpoint per host (%d hosts, %d endpoints)",
			n, len(s.Endpoints))
	}
	g, prov := s.newSense().hostGraph(s.Hosts)
	macs := make([]ethernet.MAC, s.NumVMs)
	for i := range macs {
		macs[i] = ethernet.VMMAC(i)
	}
	mapping := append([]topology.NodeID(nil), s.Mapping...)
	demands := append([]vadapt.Demand(nil), s.Demands...)
	return &Snapshot{
		Problem:    &vadapt.Problem{Hosts: g, NumVMs: s.NumVMs, Demands: demands},
		Hosts:      append([]string(nil), s.Hosts...),
		VMs:        macs,
		Mapping:    mapping,
		Provenance: prov,
	}, nil
}

// lookSOAP asks p.From's Wren service for its measurement toward p.To.
// An endpoint that errors or has nothing is no answer; the service exposes
// no observation time, so the record carries none.
func (s *SOAPSource) lookSOAP(p coord.Path) (coord.Record, bool) {
	c := s.clients[slices.Index(s.Hosts, p.From)]
	est, found, err := c.AvailableBandwidth(p.To)
	if err != nil || !found {
		return coord.Record{}, false
	}
	rec := coord.Record{Path: p, Mbps: est.Mbps, Kind: est.Kind.String(), Quality: est.Quality}
	if l, found, err := c.Latency(p.To); err == nil && found {
		rec.LatencyMs = l
	}
	return rec, true
}

// StaticSource replays a fixed snapshot — offline planning and tests.
type StaticSource struct {
	Snap *Snapshot
	Err  error
}

// Snapshot implements ProblemSource.
func (s *StaticSource) Snapshot() (*Snapshot, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if s.Snap == nil {
		return nil, fmt.Errorf("control: static source has no snapshot")
	}
	return s.Snap, nil
}
