// vnetd runs a standalone VNET daemon: it listens for overlay links,
// optionally dials a proxy, and serves its Wren measurements over SOAP.
// A hub daemon can additionally collect the peers' VTTIF/Wren control
// reports into a global view and run the adaptation controller over it.
//
//	vnetd -name hostA -listen 127.0.0.1:9001 -hub -controller
//	vnetd -name hostB -listen 127.0.0.1:9002 -connect 127.0.0.1:9001 -default-route hostA -report 250ms
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/obs/collect"
	"freemeasure/internal/pcap"
	"freemeasure/internal/vadapt"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

func main() {
	var (
		name     = flag.String("name", "", "daemon name (required, unique in the overlay)")
		listen   = flag.String("listen", "127.0.0.1:0", "address to accept overlay links on")
		connect  = flag.String("connect", "", "comma-separated peer addresses to dial (TCP links)")
		listenU  = flag.String("listen-udp", "", "also accept virtual-UDP links on this address")
		connectU = flag.String("connect-udp", "", "comma-separated peer UDP addresses to dial (virtual-UDP links)")
		deflt    = flag.String("default-route", "", "peer name for unknown destinations (the Proxy)")
		ringSpec = flag.String("proxy-ring", "", "comma-separated name=addr proxy members; installs the consistent-hash ring, dials every other member, and arms re-home on proxy loss")
		soapAddr = flag.String("soap", "", "serve the Wren SOAP interface on this address")
		forward  = flag.String("forward", "", "also ship filtered traces to a wrenrepod at this address")
		rate     = flag.Float64("rate", 0, "token-bucket rate limit (Mbit/s) for dialed links; 0 = unlimited")
		poll     = flag.Duration("poll", 500*time.Millisecond, "Wren analysis poll interval")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/events, /debug/state and /debug/trace on this address (see docs/OPERATIONS.md)")
		meshPeer = flag.String("mesh-peers", "", "comma-separated name=http://addr observability endpoints of other mesh members; merges their events into /debug/trace and their metrics into /metrics/mesh (requires -metrics-addr)")
		report   = flag.Duration("report", 0, "push VTTIF/Wren control reports to the -default-route peer at this interval (0 = off)")
		hub      = flag.Bool("hub", false, "collect peers' control reports into a global view (the Proxy role)")
		ctrl     = flag.Bool("controller", false, "run the adaptation control loop over the hub's global view (implies -hub; plans are logged, not applied)")
		ctrlInt  = flag.Duration("controller-interval", 2*time.Second, "controller cycle period; an applied plan holds the loop down for twice this")
		ctrlMin  = flag.Float64("controller-min-improvement", 0.1, "hysteresis: fractional objective gain required before acting")
		ctrlAbs  = flag.Float64("controller-min-absolute", 1.0, "hysteresis: absolute objective gain required before acting")
		estFuse  = flag.Duration("est-fusion", 0, "fuse active probe estimates into the controller's view when passive measurements are older than this; one probe train in flight at the hub, each peer probed at most once per interval (0 = passive only; requires -controller)")
		mapURL   = flag.String("map-url", "", "wrenrepod base URL to fetch the published bandwidth map from; its entries answer where they are fresher than the live view's (requires -controller)")
		mapEvery = flag.Duration("map-fetch", 2*time.Second, "bandwidth map fetch interval (requires -map-url)")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "vnetd: -name is required")
		flag.Usage()
		os.Exit(2)
	}
	if *estFuse > 0 && !*ctrl {
		fmt.Fprintln(os.Stderr, "vnetd: -est-fusion requires -controller")
		flag.Usage()
		os.Exit(2)
	}
	if *mapURL != "" && !*ctrl {
		fmt.Fprintln(os.Stderr, "vnetd: -map-url requires -controller")
		flag.Usage()
		os.Exit(2)
	}
	if *meshPeer != "" && *metrics == "" {
		fmt.Fprintln(os.Stderr, "vnetd: -mesh-peers requires -metrics-addr")
		flag.Usage()
		os.Exit(2)
	}
	var meshNames []string
	var meshAddrs map[string]string
	if *meshPeer != "" {
		var err error
		meshNames, meshAddrs, err = parseRingSpec(*meshPeer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnetd: -mesh-peers: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	var ringNames []string
	var ringAddrs map[string]string
	if *ringSpec != "" {
		var err error
		ringNames, ringAddrs, err = parseRingSpec(*ringSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnetd: -proxy-ring: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	logger := obs.NewLogger(os.Stderr, "vnetd", *name)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	d := vnet.NewDaemon(*name)
	d.SetLogger(logger)
	monitor := wren.NewMonitor(*name, wren.Config{
		Scan: wren.ScanConfig{MaxGap: 20_000_000, BurstGap: 3_000_000},
	})
	// Without -metrics-addr both stay nil: every collector and the flight
	// recorder are free no-ops.
	var reg *obs.Registry
	var flight *obs.FlightRecorder
	if *metrics != "" {
		// Attach instrumentation before any link or traffic exists.
		reg = obs.NewRegistry()
		flight = obs.NewFlightRecorder(0)
		d.SetMetrics(vnet.NewMetrics(reg))
		d.SetFlight(flight) // daemon-side events: ring swaps/shrinks, re-homes
		monitor.SetMetrics(wren.NewMonitorMetrics(reg))
		d.Traffic().SetMetrics(vttif.NewLocalMetrics(reg))
	}
	var fw *wren.Forwarder
	if *forward != "" {
		var err error
		fw, err = wren.DialRepository(*forward, *name, 0)
		if err != nil {
			fatal("dial trace repository", "addr", *forward, "err", err)
		}
		fw.SetLogger(obs.NewLogger(os.Stderr, "wren", *name))
		fw.SetFlight(flight)
		if reg != nil {
			fw.SetMetrics(wren.NewForwarderMetrics(reg))
		}
		defer fw.Close()
		go func() {
			for range time.Tick(*poll) {
				fw.Flush()
			}
		}()
		d.SetWrenBatchFeed(func(rs []pcap.Record) {
			monitor.FeedAll(rs) // local analysis stays available
			fw.FeedAll(rs)
		})
	} else {
		d.SetWrenBatchFeed(monitor.FeedAll)
	}

	addr, err := d.Listen(*listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	logger.Info("listening", "addr", addr)

	for _, peerAddr := range strings.Split(*connect, ",") {
		peerAddr = strings.TrimSpace(peerAddr)
		if peerAddr == "" {
			continue
		}
		peer, err := d.Connect(peerAddr)
		if err != nil {
			fatal("connect", "addr", peerAddr, "err", err)
		}
		logger.Info("linked", "peer", peer, "addr", peerAddr)
		if *rate > 0 {
			if l, ok := d.Link(peer); ok {
				l.SetRateMbps(*rate)
			}
		}
	}
	if *listenU != "" {
		uaddr, err := d.ListenUDP(*listenU)
		if err != nil {
			fatal("listen-udp", "addr", *listenU, "err", err)
		}
		logger.Info("virtual-UDP endpoint", "addr", uaddr)
	}
	for _, peerAddr := range strings.Split(*connectU, ",") {
		peerAddr = strings.TrimSpace(peerAddr)
		if peerAddr == "" {
			continue
		}
		peer, err := d.ConnectUDP(peerAddr)
		if err != nil {
			fatal("connect-udp", "addr", peerAddr, "err", err)
		}
		logger.Info("virtual-UDP link", "peer", peer, "addr", peerAddr)
		if *rate > 0 {
			if l, ok := d.Link(peer); ok {
				l.SetRateMbps(*rate)
			}
		}
	}
	if ringNames != nil {
		ring, err := vnet.NewProxyRing(ringNames, vnet.DefaultRingVnodes)
		if err != nil {
			fatal("proxy-ring", "err", err)
		}
		_, selfIsMember := ringAddrs[*name]
		for _, member := range ringNames {
			if member == *name {
				continue
			}
			// Between two ring members exactly one side dials — the smaller
			// name — and the other waits for the incoming link. If both
			// dialed, the two crossed connections would race the
			// duplicate-link replacement in each daemon, and the sides can
			// converge on opposite connections: each then closes the one its
			// peer kept, the link drops on both ends, and the rings shrink
			// to singletons. Hosts (not in the member list) always dial —
			// proxies don't know about them.
			if selfIsMember && *name > member {
				deadline := time.Now().Add(8 * time.Second)
				for {
					if _, ok := d.Link(member); ok {
						break
					}
					if time.Now().After(deadline) {
						fatal("ring member never dialed in", "member", member, "addr", ringAddrs[member])
					}
					time.Sleep(50 * time.Millisecond)
				}
			} else {
				// Ring members boot concurrently, so the first ones up must
				// wait out their peers' startup.
				var peer string
				for attempt := 0; ; attempt++ {
					peer, err = d.Connect(ringAddrs[member])
					if err == nil || attempt >= 20 {
						break
					}
					time.Sleep(250 * time.Millisecond)
				}
				if err != nil {
					fatal("connect ring member", "member", member, "addr", ringAddrs[member], "err", err)
				}
				if peer != member {
					fatal("ring member identity mismatch", "member", member, "announced", peer)
				}
			}
			if *rate > 0 {
				if l, ok := d.Link(member); ok {
					l.SetRateMbps(*rate)
				}
			}
			logger.Info("ring member linked", "member", member, "addr", ringAddrs[member])
		}
		d.SetProxyRing(ring)
		d.EnableRingRehome(func(dead, newHome string) {
			logger.Info("re-homed off dead proxy", "dead", dead, "home", newHome)
		})
		if *deflt == "" {
			if home := ring.HomeProxy(*name); home != *name {
				d.SetDefaultRoute(home)
				logger.Info("home proxy assigned", "peer", home)
			}
		}
		logger.Info("proxy ring installed", "members", len(ringNames),
			"version", fmt.Sprintf("%016x", ring.Version()), "share", fmt.Sprintf("%.3f", ring.Share(*name)))
	}
	if *deflt != "" {
		d.SetDefaultRoute(*deflt)
	}

	var view *vnet.GlobalView
	if *hub || *ctrl {
		view = vnet.NewGlobalView(vttif.Config{})
		if reg != nil {
			view.Agg.SetMetrics(vttif.NewAggregatorMetrics(reg), reg)
		}
		d.SetControlHandler(view.HandleControl)
		logger.Info("acting as control hub")
	}
	if *report > 0 {
		if *deflt == "" && ringNames == nil {
			fatal("-report needs -default-route or -proxy-ring (a hub to report to)")
		}
		// With -proxy-ring and no explicit -default-route, Peer stays empty
		// and the reporter follows the live default route — so reports
		// chase a re-home after the home proxy dies.
		rep := vnet.NewReporter(vnet.Reporting{Daemon: d, Wren: monitor, Peer: *deflt}, *report)
		rep.Start()
		defer rep.Stop()
		logger.Info("reporting", "peer", d.DefaultRoute(), "interval", *report)
	}
	var ctl *control.Controller
	if *ctrl {
		// Sense the hub's global view: peers are the hosts, the bridge's
		// learned MAC table locates the VMs. Plans are dry-run: a hub
		// cannot reconfigure remote standalone daemons, so each decided
		// step is logged instead of applied.
		src := &control.ViewSource{
			View: view,
			Hub:  *name,
			Hosts: func() []string {
				peers := d.Peers()
				sort.Strings(peers)
				return peers
			},
			VMs: func() []control.VMInfo {
				learned := d.Learned()
				var out []control.VMInfo
				for _, mac := range view.Agg.VMs() {
					if peer, ok := learned[mac]; ok {
						out = append(out, control.VMInfo{MAC: mac, Host: peer})
					}
				}
				return out
			},
		}
		if *estFuse > 0 {
			prober, err := control.NewHubProber(d, monitor, view.Store, *estFuse, logger)
			if err != nil {
				fatal("est-fusion", "err", err)
			}
			src.Fusion = &control.Fusion{StaleAfter: *estFuse, Kick: prober.Kick}
			logger.Info("active estimate fusion enabled", "stale_after", *estFuse)
		}
		if *mapURL != "" {
			fetcher := newMapFetcher(*mapURL, logger)
			stopFetch := make(chan struct{})
			fetcher.Start(*mapEvery, stopFetch)
			defer close(stopFetch)
			src.Map = fetcher.Current
			logger.Info("bandwidth map fetch enabled", "url", *mapURL, "interval", *mapEvery)
		}
		ctrlLog := obs.NewLogger(os.Stderr, "control", *name)
		cfg := control.Config{
			Source:   src,
			Applier:  control.LogApplier{Logger: ctrlLog},
			Gate:     vadapt.Gate{MinImprovement: *ctrlMin, MinAbsolute: *ctrlAbs},
			Interval: *ctrlInt,
			Metrics:  control.NewMetrics(reg),
			Solver:   vadapt.NewMetrics(reg),
			Logger:   ctrlLog,
			Flight:   flight,
		}
		if fw != nil {
			// Report batches shipped during a cycle carry that cycle's trace.
			cfg.TraceSink = fw.SetTrace
		}
		ctl, err = control.New(cfg)
		if err != nil {
			fatal("controller", "err", err)
		}
		ctl.Start()
		defer ctl.Stop()
		logger.Info("controller running", "interval", *ctrlInt, "hold_down", 2**ctrlInt)
	}

	go func() {
		for range time.Tick(*poll) {
			monitor.Poll()
		}
	}()

	if *soapAddr != "" {
		go func() {
			logger.Info("Wren SOAP interface", "url", "http://"+*soapAddr+"/")
			if err := http.ListenAndServe(*soapAddr, wren.NewService(monitor)); err != nil {
				fatal("soap", "err", err)
			}
		}()
	}

	if *metrics != "" {
		// The trace collector and metrics federator always include this
		// node; -mesh-peers adds the other members' observability endpoints,
		// so any member can render the whole mesh's view of a cycle.
		collector := collect.New(collect.RecorderSource(*name, flight))
		federator := collect.NewFederator(collect.RegistryMember(*name, reg))
		for _, peer := range meshNames {
			if peer == *name {
				continue
			}
			base := meshAddrs[peer]
			if !strings.Contains(base, "://") {
				base = "http://" + base
			}
			collector.AddSource(collect.HTTPSource(peer, base))
			federator.AddMember(collect.HTTPMember(peer, base))
		}
		// Served last so /debug/state can see the hub view and controller.
		maddr, err := obs.Serve(*metrics, reg, nil,
			obs.WithFlight(flight),
			obs.WithState(stateFunc(*name, d, view, ctl)),
			obs.WithHandler("/debug/trace/", collector),
			obs.WithHandler("/metrics/mesh", federator))
		if err != nil {
			fatal("metrics-addr", "err", err)
		}
		logger.Info("operator surface up", "url", "http://"+maddr+"/metrics")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down", "stats", fmt.Sprintf("%+v", d.Stats()))
	d.Close()
}

// stateFunc builds the /debug/state snapshot closure: what this daemon
// currently believes — peers, forwarding state, learned MAC locations,
// and (on a hub) the global view and the controller's introspection.
func stateFunc(name string, d *vnet.Daemon, view *vnet.GlobalView, ctl *control.Controller) func() any {
	return func() any {
		st := map[string]any{
			"daemon":  name,
			"peers":   d.Peers(),
			"rules":   macMapJSON(d.Rules()),
			"learned": macMapJSON(d.Learned()),
		}
		if ring := d.Ring(); ring != nil {
			st["ring"] = ringJSON(ring, d.DefaultRoute())
		}
		if view != nil {
			// The error is a closed store's; the view's never closes.
			paths, _ := view.Store.Scan(coord.Query{})
			st["paths"] = paths.Records
			st["traffic"] = trafficJSON(view.Agg.Rates())
		}
		if ctl != nil {
			st["controller"] = ctl.DebugState()
		}
		return st
	}
}

// parseRingSpec parses the -proxy-ring member list: "name=addr" entries,
// comma-separated, unique names, at least one member.
func parseRingSpec(spec string) (names []string, addrs map[string]string, err error) {
	addrs = make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		if !ok || name == "" || addr == "" {
			return nil, nil, fmt.Errorf("bad member %q (want name=addr)", entry)
		}
		if _, dup := addrs[name]; dup {
			return nil, nil, fmt.Errorf("duplicate member %q", name)
		}
		names = append(names, name)
		addrs[name] = addr
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("empty member list")
	}
	return names, addrs, nil
}

// ringJSON renders the installed proxy ring for /debug/state: membership,
// the change-detection version, this daemon's home, per-member ownership
// shares, and the merged arc summary — the route advertisement, readable.
func ringJSON(ring *vnet.ProxyRing, home string) map[string]any {
	shares := make(map[string]float64, ring.Len())
	for _, m := range ring.Members() {
		shares[m] = ring.Share(m)
	}
	return map[string]any{
		"members": ring.Members(),
		"version": fmt.Sprintf("%016x", ring.Version()),
		"home":    home,
		"shares":  shares,
		"summary": ring.Summary(),
	}
}

// macMapJSON renders a MAC-keyed table (rules, learned locations) with
// string keys so it can be a JSON object.
func macMapJSON(m map[ethernet.MAC]string) map[string]string {
	out := make(map[string]string, len(m))
	for mac, peer := range m {
		out[mac.String()] = peer
	}
	return out
}

// flowJSON is one aggregated VTTIF traffic-matrix entry.
type flowJSON struct {
	Src         string  `json:"src"`
	Dst         string  `json:"dst"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

func trafficJSON(rates map[vttif.Pair]float64) []flowJSON {
	out := make([]flowJSON, 0, len(rates))
	for p, r := range rates {
		out = append(out, flowJSON{Src: p.Src.String(), Dst: p.Dst.String(), BytesPerSec: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}
