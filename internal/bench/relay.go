package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
)

// This file holds the two data-plane workloads. Both build proxy + h1 + h2
// from vnet.NewDaemon/Listen/Connect, attach VM ports with AttachVM, and
// push frames with InjectFrame from closed-loop clients whose credits come
// back in-process when the frame is delivered. relay_small sends 64-byte
// frames across the star (two overlay hops) with a ping-pong client
// measuring RTT while the pipe is full; bulk_duplex adds a direct h1<->h2
// link with a forwarding rule each way and streams 1500-byte frames in
// both directions at once.

// streamWindow is each stream client's credit window (frames in flight).
const streamWindow = 32

// latSampleEvery thins per-frame latency sampling on stream flows.
const latSampleEvery = 16

// stampLen is the payload prefix every frame carries: sequence number,
// nowNs send stamp, and the trace op id (0 when the frame is unsampled).
const stampLen = 24

// instrLevel selects how much of the production instrumentation a relay
// system carries — the columns behind the paper's "free".
type instrLevel int

const (
	instrBare instrLevel = iota // no Wren sink, no reporters, no registry
	instrWren                   // Wren monitors + VTTIF reports, uninstrumented
	instrFull                   // as vnetd -metrics-addr: + obs registry and flight recorder
)

// relaySizes fixes how much work one relay run does.
type relaySizes struct {
	warmFrames int           // delivered per stream before set-up ends
	windows    int           // measured windows
	window     time.Duration // length of each
}

// relayRounds: a saturated relay's CPU per frame depends on where its
// connections and goroutines happened to land (15 % between builds), so the
// relay workloads rebuild often.
const relayRounds = 8

// relaySizesFor sizes one round: -seconds of measuring is split evenly
// over the run's rounds, four windows (blocks) each.
func relaySizesFor(seconds int) relaySizes {
	const windows = 4
	return relaySizes{
		warmFrames: 40000,
		windows:    windows,
		window:     time.Duration(seconds) * time.Second / (relayRounds * windows),
	}
}

// relayOpt is the shape of one relay system.
type relayOpt struct {
	payload int
	duplex  bool // bulk_duplex: direct link, two streams, no ping
	udp     bool // direct link over virtual UDP (lossy; traced column only)
	instr   instrLevel
}

func relayOptFor(workload string) relayOpt {
	if workload == BulkDuplex {
		return relayOpt{payload: ethernet.MaxPayload, duplex: true, instr: instrFull}
	}
	return relayOpt{payload: 64, instr: instrFull}
}

// stream is one closed-loop stream client and its receiving port.
type stream struct {
	src       *vnet.Daemon
	frame     ethernet.Frame
	hops      int
	lossy     bool
	credits   chan struct{}
	sent      atomic.Uint64
	delivered atomic.Uint64
	written   atomic.Uint64 // credits re-issued after a loss timeout (lossy only)

	mu    sync.Mutex
	latUs []float64 // sampled inject→deliver
	tr    *Tracer
}

func (s *stream) deliver(f *ethernet.Frame) {
	if f.Type != ethernet.TypeApp || len(f.Payload) < stampLen {
		return
	}
	n := s.delivered.Add(1)
	if n%latSampleEvery == 0 {
		now := nowNs()
		sentAt := int64(binary.BigEndian.Uint64(f.Payload[8:16]))
		s.mu.Lock()
		s.latUs = append(s.latUs, float64(now-sentAt)/1e3)
		s.mu.Unlock()
		if op := binary.BigEndian.Uint64(f.Payload[16:24]); op != 0 {
			s.tr.Record(Span{Op: op, ID: 1, Layer: "bench", Name: "frame", StartNs: sentAt, EndNs: now})
		}
	}
	select {
	case s.credits <- struct{}{}:
	default:
	}
}

func (s *stream) takeLat() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.latUs
	s.latUs = nil
	return out
}

// run is the client loop: one frame per credit until stop closes.
func (s *stream) run(stop <-chan struct{}) {
	var seq uint64
	var lossTimer *time.Timer
	if s.lossy {
		lossTimer = time.NewTimer(time.Hour)
		defer lossTimer.Stop()
	}
	for {
		if s.lossy {
			// A lost datagram never returns its credit; after 2 ms of
			// silence everything in flight is written off and re-issued.
			lossTimer.Reset(2 * time.Millisecond)
			select {
			case <-s.credits:
			case <-stop:
				return
			case <-lossTimer.C:
				// Late arrivals after a write-off can push the sum past sent.
				inflight := int64(s.sent.Load()) - int64(s.delivered.Load()) - int64(s.written.Load())
				if inflight <= 0 {
					continue
				}
				s.written.Add(uint64(inflight))
				for i := int64(1); i < inflight; i++ {
					select {
					case s.credits <- struct{}{}:
					default:
					}
				}
			}
		} else {
			select {
			case <-s.credits:
			case <-stop:
				return
			}
		}
		seq++
		p := s.frame.Payload
		binary.BigEndian.PutUint64(p[0:8], seq)
		var op uint64
		traced := s.tr != nil && seq%latSampleEvery == 0
		if traced {
			op = s.tr.NextOp()
		}
		binary.BigEndian.PutUint64(p[16:24], op)
		t0 := nowNs()
		binary.BigEndian.PutUint64(p[8:16], uint64(t0))
		s.src.InjectFrame(&s.frame)
		if traced {
			s.tr.Record(Span{Op: op, ID: 2, Parent: 1, Layer: "vnet", Name: "inject", StartNs: t0, EndNs: nowNs()})
		}
		s.sent.Add(1)
	}
}

// pinger is relay_small's window-1 ping-pong client: vm2@h1 pings vm3@h2,
// whose responder (its own goroutine, as a guest would be) answers.
type pinger struct {
	h1, h2   *vnet.Daemon
	ping     ethernet.Frame
	pong     ethernet.Frame
	toResp   chan uint64 // cap 1: ping arrived, responder's turn
	toPinger chan uint64 // cap 1: pong arrived

	attempted atomic.Uint64
	failed    atomic.Uint64
	mu        sync.Mutex
	rttUs     []float64
}

func (p *pinger) onPing(f *ethernet.Frame) {
	if f.Type != ethernet.TypeApp || len(f.Payload) < stampLen {
		return
	}
	select {
	case p.toResp <- binary.BigEndian.Uint64(f.Payload[0:8]):
	default:
	}
}

func (p *pinger) onPong(f *ethernet.Frame) {
	if f.Type != ethernet.TypeApp || len(f.Payload) < stampLen {
		return
	}
	select {
	case p.toPinger <- binary.BigEndian.Uint64(f.Payload[0:8]):
	default:
	}
}

func (p *pinger) respond(stop <-chan struct{}) {
	for {
		select {
		case seq := <-p.toResp:
			binary.BigEndian.PutUint64(p.pong.Payload[0:8], seq)
			p.h2.InjectFrame(&p.pong)
		case <-stop:
			return
		}
	}
}

func (p *pinger) run(stop <-chan struct{}) {
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	var seq uint64
	for {
		select {
		case <-stop:
			return
		default:
		}
		seq++
		binary.BigEndian.PutUint64(p.ping.Payload[0:8], seq)
		p.attempted.Add(1)
		t0 := nowNs()
		p.h1.InjectFrame(&p.ping)
		timeout.Reset(time.Second)
	wait:
		for {
			select {
			case got := <-p.toPinger:
				if got != seq {
					continue // a straggler from a ping already written off
				}
				rtt := float64(nowNs()-t0) / 1e3
				p.mu.Lock()
				p.rttUs = append(p.rttUs, rtt)
				p.mu.Unlock()
				break wait
			case <-timeout.C:
				p.failed.Add(1)
				break wait
			case <-stop:
				return
			}
		}
	}
}

func (p *pinger) takeRTT() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.rttUs
	p.rttUs = nil
	return out
}

// relaySystem is one built and running relay topology.
type relaySystem struct {
	opt       relayOpt
	daemons   []*vnet.Daemon // proxy, h1, h2
	monitors  []*wren.Monitor
	reporters []*vnet.Reporter
	streams   []*stream
	ping      *pinger

	stop     chan struct{}
	stopOnce sync.Once
	clients  sync.WaitGroup
	pollers  sync.WaitGroup
	pollStop chan struct{}
}

// instrument wires one daemon the way cmd/vnetd does at the given level.
func (s *relaySystem) instrument(d *vnet.Daemon) *wren.Monitor {
	if s.opt.instr == instrBare {
		return nil
	}
	mon := wren.NewMonitor(d.Name(), wren.Config{
		Scan: wren.ScanConfig{MaxGap: 20_000_000, BurstGap: 3_000_000},
	})
	if s.opt.instr == instrFull {
		reg := obs.NewRegistry()
		d.SetMetrics(vnet.NewMetrics(reg))
		d.SetFlight(obs.NewFlightRecorder(0))
		mon.SetMetrics(wren.NewMonitorMetrics(reg))
		d.Traffic().SetMetrics(vttif.NewLocalMetrics(reg))
	}
	d.SetWrenBatchFeed(mon.FeedAll)
	s.monitors = append(s.monitors, mon)
	return mon
}

func vmFrame(src, dst int, payload []byte) ethernet.Frame {
	return ethernet.Frame{Dst: ethernet.VMMAC(dst), Src: ethernet.VMMAC(src), Type: ethernet.TypeApp, Payload: payload}
}

// announce floods the gratuitous-ARP analogue so the proxy learns where a
// freshly attached MAC lives.
func announce(d *vnet.Daemon, id int) {
	d.InjectFrame(&ethernet.Frame{Dst: ethernet.Broadcast, Src: ethernet.VMMAC(id), Type: ethernet.TypeControl})
}

// buildRelay constructs the topology, starts the clients and returns once
// every stream has delivered sz.warmFrames (the fixed-count warm-up).
func buildRelay(opt relayOpt, sz relaySizes, seed int64, tr *Tracer) (*relaySystem, error) {
	s := &relaySystem{opt: opt, stop: make(chan struct{}), pollStop: make(chan struct{})}
	fail := func(err error) (*relaySystem, error) {
		s.close()
		return nil, err
	}
	var addrs [3]string
	for i, name := range []string{"proxy", "h1", "h2"} {
		d := vnet.NewDaemon(name)
		mon := s.instrument(d)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			d.Close()
			return fail(fmt.Errorf("listen %s: %w", name, err))
		}
		addrs[i] = addr
		s.daemons = append(s.daemons, d)
		if i == 0 {
			if opt.instr != instrBare {
				view := vnet.NewGlobalView(vttif.Config{})
				if opt.instr == instrFull {
					reg := obs.NewRegistry()
					view.Agg.SetMetrics(vttif.NewAggregatorMetrics(reg), reg)
				}
				d.SetControlHandler(view.HandleControl)
			}
			continue
		}
		if _, err := d.Connect(addrs[0]); err != nil {
			return fail(fmt.Errorf("connect %s to proxy: %w", name, err))
		}
		d.SetDefaultRoute("proxy")
		if mon != nil {
			rep := vnet.NewReporter(vnet.Reporting{Daemon: d, Wren: mon, Peer: "proxy"}, time.Second)
			rep.Start()
			s.reporters = append(s.reporters, rep)
		}
	}
	// vnetd's -poll loop: analysis runs twice a second on every daemon.
	for _, mon := range s.monitors {
		mon := mon
		s.pollers.Add(1)
		go func() {
			defer s.pollers.Done()
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					mon.Poll()
				case <-s.pollStop:
					return
				}
			}
		}()
	}
	h1, h2 := s.daemons[1], s.daemons[2]
	rng := rand.New(rand.NewSource(seed))
	payload := func() []byte {
		b := make([]byte, opt.payload)
		rng.Read(b[stampLen:])
		return b
	}
	addStream := func(src, dst *vnet.Daemon, from, to, hops int) {
		st := &stream{src: src, frame: vmFrame(from, to, payload()), hops: hops,
			lossy: opt.udp, credits: make(chan struct{}, streamWindow), tr: tr}
		for i := 0; i < streamWindow; i++ {
			st.credits <- struct{}{}
		}
		dst.AttachVM(ethernet.VMMAC(to), st.deliver)
		announce(dst, to)
		s.streams = append(s.streams, st)
	}
	if opt.duplex {
		if opt.udp {
			uaddr, err := h2.ListenUDP("127.0.0.1:0")
			if err != nil {
				return fail(fmt.Errorf("listen udp: %w", err))
			}
			if _, err := h1.ConnectUDP(uaddr); err != nil {
				return fail(fmt.Errorf("connect udp: %w", err))
			}
		} else if _, err := h1.Connect(addrs[2]); err != nil {
			return fail(fmt.Errorf("connect h1 to h2: %w", err))
		}
		if !waitFor(time.Second, time.Millisecond, func() bool {
			_, ok := h2.Link("h1")
			return ok
		}) {
			return fail(fmt.Errorf("direct link never came up on h2"))
		}
		addStream(h1, h2, 0, 1, 1)
		addStream(h2, h1, 1, 0, 1)
		h1.AddRule(ethernet.VMMAC(1), "h2")
		h2.AddRule(ethernet.VMMAC(0), "h1")
	} else {
		addStream(h1, h2, 0, 1, 2)
		p := &pinger{h1: h1, h2: h2, toResp: make(chan uint64, 1), toPinger: make(chan uint64, 1)}
		p.ping, p.pong = vmFrame(2, 3, payload()), vmFrame(3, 2, payload())
		h2.AttachVM(ethernet.VMMAC(3), p.onPing)
		h1.AttachVM(ethernet.VMMAC(2), p.onPong)
		announce(h2, 3)
		announce(h1, 2)
		s.ping = p
	}
	// The proxy must have learned both receivers before unicast flows.
	if !opt.duplex && !waitFor(time.Second, time.Millisecond, func() bool {
		l := s.daemons[0].Learned()
		_, a := l[ethernet.VMMAC(1)]
		_, b := l[ethernet.VMMAC(3)]
		_, c := l[ethernet.VMMAC(2)]
		return a && b && c
	}) {
		return fail(fmt.Errorf("proxy never learned the receivers"))
	}
	for _, st := range s.streams {
		st := st
		s.clients.Add(1)
		go func() { defer s.clients.Done(); st.run(s.stop) }()
	}
	if s.ping != nil {
		s.clients.Add(2)
		go func() { defer s.clients.Done(); s.ping.respond(s.stop) }()
		go func() { defer s.clients.Done(); s.ping.run(s.stop) }()
	}
	warmed := waitFor(60*time.Second, time.Millisecond, func() bool {
		for _, st := range s.streams {
			if st.delivered.Load() < uint64(sz.warmFrames) {
				return false
			}
		}
		return true
	})
	if !warmed {
		return fail(fmt.Errorf("warm-up stalled short of %d frames per stream", sz.warmFrames))
	}
	return s, nil
}

// stopClients halts the load and waits (up to a second, the delivery
// deadline) for frames in flight to land.
func (s *relaySystem) stopClients() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.clients.Wait()
	waitFor(time.Second, time.Millisecond, func() bool {
		for _, st := range s.streams {
			if st.delivered.Load() < st.sent.Load() {
				return false
			}
		}
		return true
	})
}

func (s *relaySystem) close() {
	s.stopClients()
	close(s.pollStop)
	s.pollers.Wait()
	for _, r := range s.reporters {
		r.Stop()
	}
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].Close()
	}
}

func (s *relaySystem) delivered() uint64 {
	var n uint64
	for _, st := range s.streams {
		n += st.delivered.Load()
	}
	return n
}

// relayWindows is what a measured relay pass yields beyond the Result.
type relayWindows struct {
	framesPerS  float64
	cpuUsPerFrm float64
	sysPerFrame float64 // read+write syscalls per delivered frame; 0 when unreadable
	hopUsP50    float64
	lossRatio   float64
	feedDropped float64
	blocks      []blockValues // one per window
}

// measureRelay runs the windows on a warmed system and stops its clients.
// Failed ops and failed output checks are recorded on res.
func measureRelay(s *relaySystem, sz relaySizes, res *Result) relayWindows {
	var out relayWindows
	var sysPer, hop []float64
	runtime.GC()
	if s.ping != nil {
		s.ping.takeRTT()
	}
	for _, st := range s.streams {
		st.takeLat()
	}
	for w := 0; w < sz.windows; w++ {
		d0, c0, t0 := s.delivered(), cpuNow(), time.Now()
		io0, ioOK := rwSyscalls()
		time.Sleep(sz.window)
		d1, c1, el := s.delivered(), cpuNow(), time.Since(t0)
		io1, _ := rwSyscalls()
		var lat []float64
		for _, st := range s.streams {
			one := st.takeLat()
			for _, v := range one {
				hop = append(hop, v/float64(st.hops))
			}
			lat = append(lat, one...)
		}
		if s.ping != nil {
			lat = s.ping.takeRTT()
		}
		n := float64(d1 - d0)
		if n == 0 || len(lat) == 0 {
			res.problem("window %d delivered %.0f frames and sampled %d latencies", w, n, len(lat))
			continue
		}
		if ioOK {
			sysPer = append(sysPer, float64(io1-io0)/n)
		}
		out.blocks = append(out.blocks, blockValues{
			opsPerS:    n / el.Seconds(),
			cpuUsPerOp: float64(c1-c0) / 1e3 / n,
			latP50Us:   quantile(lat, 0.5),
			latP90Us:   quantile(lat, 0.9),
		})
	}
	s.stopClients()
	// Whole-pass figures for the traced run's columns, by the same
	// good-side-quartile rule the end-to-end run applies to its blocks.
	var fps, cpuPer []float64
	for _, b := range out.blocks {
		fps, cpuPer = append(fps, b.opsPerS), append(cpuPer, b.cpuUsPerOp)
	}
	out.framesPerS, out.cpuUsPerFrm = goodQuartile(fps, true), goodQuartile(cpuPer, false)
	if len(sysPer) > 0 {
		out.sysPerFrame = median(sysPer)
	}
	if len(hop) > 0 {
		out.hopUsP50 = median(hop)
	}
	var sent, got uint64
	for i, st := range s.streams {
		sn, dn := st.sent.Load(), st.delivered.Load()
		sent, got = sent+sn, got+dn
		res.Attempted += int(sn)
		if !s.opt.udp && dn != sn {
			res.Failed += int(sn - dn)
			res.problem("stream %d: delivered %d of %d frames within 1s", i, dn, sn)
		}
	}
	if sent > 0 {
		out.lossRatio = 1 - float64(got)/float64(sent)
	}
	if s.ping != nil {
		res.Attempted += int(s.ping.attempted.Load())
		if f := s.ping.failed.Load(); f > 0 {
			res.Failed += int(f)
			res.problem("%d pings unanswered after 1s", f)
		}
	}
	var dropped, fed uint64
	for _, d := range s.daemons {
		dropped += d.Stats().WrenFeedDropped
	}
	for _, m := range s.monitors {
		st := m.Stats()
		fed += st.OutRecords + st.AckRecords
	}
	if dropped+fed > 0 {
		out.feedDropped = float64(dropped) / float64(dropped+fed)
	}
	return out
}

// runRelay is the end-to-end entry for relay_small and bulk_duplex.
func runRelay(workload string, seed int64, sz relaySizes, nRounds int) (*Result, error) {
	res := &Result{Workload: workload, Seed: seed, Correct: true, Counts: map[string]int64{}}
	opt := relayOptFor(workload)
	err := runRounds(res, nRounds, func(int) (float64, []blockValues, error) {
		t0 := time.Now()
		sys, err := buildRelay(opt, sz, seed, nil)
		if err != nil {
			return 0, nil, err
		}
		setup := time.Since(t0).Seconds()
		defer sys.close()
		return setup, measureRelay(sys, sz, res).blocks, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// relayColumn builds one system at the given shape, measures it and tears
// it down — the traced run's columns (bare / wren / full / udp).
func relayColumn(opt relayOpt, sz relaySizes, seed int64, tr *Tracer, res *Result) (relayWindows, error) {
	sys, err := buildRelay(opt, sz, seed, tr)
	if err != nil {
		return relayWindows{}, err
	}
	defer sys.close()
	return measureRelay(sys, sz, res), nil
}
