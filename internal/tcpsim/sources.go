package tcpsim

import (
	"math/rand"

	"freemeasure/internal/simnet"
)

// MessagePhase describes one phase of an application's communication
// pattern: Count messages of Size bytes, spaced Spacing apart (plus an
// optional uniform jitter in [0, SpacingJitter)), followed by Pause of
// silence. This is the workload shape of the paper's Figure 2 monitored
// application: bursts of messages with inter-message spacings, far below
// saturation.
type MessagePhase struct {
	Count         int
	Size          int
	Spacing       simnet.Duration
	SpacingJitter simnet.Duration
	Pause         simnet.Duration
}

// MessageApp drives a Conn through a list of phases, optionally looping.
type MessageApp struct {
	conn   *Conn
	phases []MessagePhase
	rng    *rand.Rand
	loops  int // remaining loops; -1 = forever
	done   bool
}

// StartMessageApp schedules the phases beginning at `at`. loops is the
// number of times the full phase list runs (1 = once, -1 = forever).
func StartMessageApp(conn *Conn, phases []MessagePhase, at simnet.Time, loops int, seed int64) *MessageApp {
	if loops == 0 {
		loops = 1
	}
	app := &MessageApp{
		conn:   conn,
		phases: phases,
		rng:    rand.New(rand.NewSource(seed)),
		loops:  loops,
	}
	conn.net.Schedule(at, func() { app.run(0, 0) })
	return app
}

// Done reports whether all phases completed.
func (a *MessageApp) Done() bool { return a.done }

func (a *MessageApp) run(phase, sent int) {
	if phase >= len(a.phases) {
		if a.loops > 0 {
			a.loops--
		}
		if a.loops == 0 {
			a.done = true
			return
		}
		a.run(0, 0)
		return
	}
	p := a.phases[phase]
	if sent >= p.Count {
		a.conn.net.After(p.Pause, func() { a.run(phase+1, 0) })
		return
	}
	a.conn.Write(p.Size)
	gap := p.Spacing
	if p.SpacingJitter > 0 {
		gap += simnet.Duration(a.rng.Int63n(int64(p.SpacingJitter)))
	}
	a.conn.net.After(gap, func() { a.run(phase, sent+1) })
}

// CBR is a UDP-style constant-bit-rate source (the iperf substitute that
// regulates available bandwidth in the Figure 2 experiment). Rate steps
// can be scheduled; rate 0 pauses the source.
type CBR struct {
	net      *simnet.Network
	flow     simnet.FlowID
	src, dst simnet.HostID
	pktSize  int
	rateMbps float64
	epoch    uint64 // invalidates pending ticks across rate changes
	Sent     uint64
	Received uint64
}

// NewCBR creates a CBR source with a counting sink registered at dst.
// pktSize is the wire size of each packet (default 1500 when 0).
func NewCBR(net *simnet.Network, flow simnet.FlowID, src, dst simnet.HostID, pktSize int) *CBR {
	if pktSize <= 0 {
		pktSize = 1500
	}
	c := &CBR{net: net, flow: flow, src: src, dst: dst, pktSize: pktSize}
	net.Host(dst).Register(flow, func(pkt *simnet.Packet, now simnet.Time) { c.Received++ })
	return c
}

// SetRateAt schedules a rate change (0 stops the source) at time at.
func (c *CBR) SetRateAt(at simnet.Time, rateMbps float64) {
	c.net.Schedule(at, func() { c.setRate(rateMbps) })
}

func (c *CBR) setRate(rateMbps float64) {
	c.epoch++
	c.rateMbps = rateMbps
	if rateMbps <= 0 {
		return
	}
	c.tick(c.epoch)
}

func (c *CBR) tick(epoch uint64) {
	if epoch != c.epoch || c.rateMbps <= 0 {
		return
	}
	c.net.Send(&simnet.Packet{Flow: c.flow, Src: c.src, Dst: c.dst, Size: c.pktSize})
	c.Sent++
	interval := simnet.Duration(float64(c.pktSize*8) / (c.rateMbps * 1e6) * float64(simnet.Second))
	c.net.After(interval, func() { c.tick(epoch) })
}

// OnOffTCP is a greedy TCP source that alternates between exponentially
// distributed ON periods (during which it keeps the pipe full) and OFF
// periods of silence — the cross-traffic generator of the Figure 3 WAN
// experiment.
type OnOffTCP struct {
	conn    *Conn
	rng     *rand.Rand
	meanOn  simnet.Duration
	meanOff simnet.Duration
	chunk   int
	on      bool
}

// StartOnOffTCP begins the on/off cycle at time at. The source starts in
// an OFF period so that staggered generators desynchronize naturally.
func StartOnOffTCP(conn *Conn, meanOn, meanOff simnet.Duration, at simnet.Time, seed int64) *OnOffTCP {
	o := &OnOffTCP{
		conn:    conn,
		rng:     rand.New(rand.NewSource(seed)),
		meanOn:  meanOn,
		meanOff: meanOff,
		chunk:   256 * 1024,
	}
	conn.OnAck = func(now simnet.Time) {
		// Keep the source greedy during ON: top up when the buffer drains.
		if o.on && conn.Buffered() < int64(o.chunk)/2 {
			conn.Write(o.chunk)
		}
	}
	conn.net.Schedule(at, func() { o.enterOff() })
	return o
}

func (o *OnOffTCP) expDur(mean simnet.Duration) simnet.Duration {
	d := simnet.Duration(o.rng.ExpFloat64() * float64(mean))
	if d < simnet.Millisecond {
		d = simnet.Millisecond
	}
	return d
}

func (o *OnOffTCP) enterOn() {
	o.on = true
	o.conn.Write(o.chunk)
	o.conn.net.After(o.expDur(o.meanOn), func() { o.enterOff() })
}

func (o *OnOffTCP) enterOff() {
	o.on = false
	o.conn.net.After(o.expDur(o.meanOff), func() { o.enterOn() })
}
