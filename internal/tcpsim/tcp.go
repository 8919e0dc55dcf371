package tcpsim

import (
	"fmt"
	"math/rand"

	"freemeasure/internal/simnet"
)

// Config holds the transport parameters. ZeroConfig fields are filled with
// defaults by NewConnection.
type Config struct {
	MSS        int             // maximum segment payload bytes (default 1460)
	HeaderSize int             // header bytes added per data segment (default 40)
	AckSize    int             // bytes per ACK on the wire (default 40)
	InitCwnd   float64         // initial congestion window in segments (default 2)
	MaxCwnd    float64         // receive-window cap in segments (default 512)
	MinRTO     simnet.Duration // lower bound for the retransmission timer (default 200 ms)
	// IdleReset enables congestion window validation: after an idle period
	// of at least one RTO the window decays (halved per RTO elapsed, floor
	// InitCwnd) and ssthresh remembers the prior window, so sending resumes
	// with slow start toward the old rate. Default true.
	IdleReset bool
	// NoIdleReset disables IdleReset explicitly (since the zero value of a
	// bool cannot express "default true").
	NoIdleReset bool
	// AckJitter adds a uniform random [0, AckJitter) processing delay
	// before each ACK transmission, modeling receiver interrupt and
	// scheduling noise (default 30 us; negative disables). Without it the
	// simulator's perfect determinism phase-locks a self-clocked sender's
	// arrivals to the bottleneck's departures, letting it dodge droptail
	// losses that real flows share.
	AckJitter simnet.Duration
	// JitterSeed seeds the jitter stream (default: the flow ID).
	JitterSeed int64
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.HeaderSize == 0 {
		c.HeaderSize = 40
	}
	if c.AckSize == 0 {
		c.AckSize = 40
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 512
	}
	if c.MinRTO == 0 {
		c.MinRTO = simnet.Milliseconds(200)
	}
	if c.AckJitter == 0 {
		c.AckJitter = 30 * simnet.Microsecond
	} else if c.AckJitter < 0 {
		c.AckJitter = 0
	}
	c.IdleReset = !c.NoIdleReset
	return c
}

// Stats counts transport-level events on a connection.
type Stats struct {
	SegmentsSent   uint64
	BytesAcked     int64
	Retransmits    uint64
	Timeouts       uint64
	FastRetransmit uint64
	RTTSamples     uint64
}

// Conn is one unidirectional TCP connection: the sender lives on Src, the
// receiver (pure ACKer) on Dst. Applications push bytes with Write; the
// connection drains them subject to congestion control.
type Conn struct {
	net  *simnet.Network
	cfg  Config
	flow simnet.FlowID
	src  simnet.HostID
	dst  simnet.HostID

	// Sender state.
	sndUna         int64 // oldest unacknowledged byte
	sndNxt         int64 // next byte to send
	appBytes       int64 // total bytes the application has written
	cwnd           float64
	ssthresh       float64
	dupAcks        int
	recover        int64 // fast-recovery exit point
	inFastRecovery bool
	rexmitUntil    int64 // after an RTO, bytes below this are retransmissions

	// RTT estimation (Jacobson/Karvels) and timer state.
	srtt, rttvar simnet.Duration
	rto          simnet.Duration
	timerEpoch   uint64 // invalidates stale RTO events
	timerArmed   bool
	sendTimes    map[int64]simnet.Time // segment seq -> departure (cleared on rexmit; Karn)

	lastSend simnet.Time

	// Receiver state.
	rcvNxt   int64
	ooo      map[int64]int // out-of-order segments: seq -> len
	jitter   *rand.Rand    // receiver processing-noise stream
	ackClock simnet.Time   // last scheduled ACK departure (keeps ACKs ordered)

	stats Stats
	// OnAck, if set, fires after each ACK is processed at the sender.
	OnAck func(now simnet.Time)
}

// NewConnection creates a connection for flow between src and dst,
// registering the data handler at dst and the ACK handler at src.
func NewConnection(net *simnet.Network, flow simnet.FlowID, src, dst simnet.HostID, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = int64(flow) + 1
	}
	c := &Conn{
		net:       net,
		cfg:       cfg,
		flow:      flow,
		src:       src,
		dst:       dst,
		cwnd:      cfg.InitCwnd,
		ssthresh:  cfg.MaxCwnd,
		rto:       simnet.Second, // RFC 6298 initial RTO
		sendTimes: make(map[int64]simnet.Time),
		ooo:       make(map[int64]int),
		jitter:    rand.New(rand.NewSource(seed)),
	}
	net.Host(dst).Register(flow, c.onData)
	net.Host(src).Register(flow, c.onAck)
	return c
}

// BytesAcked returns the cumulatively acknowledged byte count; sampling it
// over time yields the application throughput.
func (c *Conn) BytesAcked() int64 { return c.stats.BytesAcked }

// Outstanding returns the bytes in flight.
func (c *Conn) Outstanding() int64 { return c.sndNxt - c.sndUna }

// Buffered returns bytes written but not yet sent for the first time.
func (c *Conn) Buffered() int64 { return c.appBytes - c.sndNxt }

// Write queues n application bytes for transmission, applying idle-window
// validation first, and tries to send immediately.
func (c *Conn) Write(n int) {
	if n <= 0 {
		panic("tcpsim: non-positive write")
	}
	now := c.net.Now()
	if c.cfg.IdleReset && c.sndUna == c.sndNxt && c.lastSend > 0 {
		idle := now.Sub(c.lastSend)
		if idle >= c.rto {
			// RFC 2861: halve cwnd for each RTO of idle time, but remember
			// the old operating point in ssthresh so slow start probes back
			// up through intermediate rates (the trains Wren feeds on).
			old := c.cwnd
			for d := idle; d >= c.rto && c.cwnd > c.cfg.InitCwnd; d -= c.rto {
				c.cwnd /= 2
			}
			if c.cwnd < c.cfg.InitCwnd {
				c.cwnd = c.cfg.InitCwnd
			}
			if old > c.ssthresh {
				c.ssthresh = old
			}
		}
	}
	c.appBytes += int64(n)
	c.trySend()
}

// segsInFlight converts outstanding bytes to whole segments.
func (c *Conn) segsInFlight() int {
	return int((c.Outstanding() + int64(c.cfg.MSS) - 1) / int64(c.cfg.MSS))
}

// trySend transmits as many segments as the window allows; back-to-back
// sends serialize on the host's access link, which is what forms trains.
// After an RTO has pulled sndNxt back to sndUna, the segments below
// rexmitUntil are go-back-N retransmissions (not timed, per Karn).
func (c *Conn) trySend() {
	for c.sndNxt < c.appBytes && c.segsInFlight() < int(c.cwnd) {
		payload := c.appBytes - c.sndNxt
		if payload > int64(c.cfg.MSS) {
			payload = int64(c.cfg.MSS)
		}
		c.sendSegment(c.sndNxt, int(payload), c.sndNxt < c.rexmitUntil)
		c.sndNxt += payload
	}
}

func (c *Conn) sendSegment(seq int64, length int, isRexmit bool) {
	now := c.net.Now()
	pkt := &simnet.Packet{
		Flow: c.flow,
		Src:  c.src,
		Dst:  c.dst,
		Size: length + c.cfg.HeaderSize,
		Seq:  seq,
		Len:  length,
	}
	c.net.Send(pkt)
	c.stats.SegmentsSent++
	c.lastSend = now
	if isRexmit {
		c.stats.Retransmits++
		delete(c.sendTimes, seq) // Karn: never time a retransmitted segment
	} else {
		c.sendTimes[seq] = now
	}
	c.armTimer()
}

// armTimer (re)starts the retransmission timer.
func (c *Conn) armTimer() {
	c.timerEpoch++
	epoch := c.timerEpoch
	c.timerArmed = true
	c.net.After(simnet.Duration(c.rto), func() { c.onTimeout(epoch) })
}

func (c *Conn) onTimeout(epoch uint64) {
	if epoch != c.timerEpoch || c.sndUna == c.sndNxt {
		return // stale timer or nothing outstanding
	}
	c.stats.Timeouts++
	c.ssthresh = maxf(c.cwnd/2, 2)
	c.cwnd = 1
	c.inFastRecovery = false
	c.dupAcks = 0
	c.rto *= 2 // exponential backoff
	if c.rto > 60*simnet.Second {
		c.rto = 60 * simnet.Second
	}
	// Go-back-N: everything outstanding is presumed lost. Pull sndNxt back
	// to sndUna and let slow start resend it (the receiver's out-of-order
	// cache makes the cumulative ACKs leap across whatever did arrive).
	// Karn: none of those retransmissions is timed.
	if c.sndNxt > c.rexmitUntil {
		c.rexmitUntil = c.sndNxt
	}
	c.sndNxt = c.sndUna
	for seq := range c.sendTimes {
		delete(c.sendTimes, seq)
	}
	c.trySend()
}

// onData runs at the receiver: cumulative acking with an out-of-order
// buffer; every arriving segment triggers an ACK (no delayed ACKs: 2006-era
// Linux acked at least every other segment, and immediate ACKs give Wren
// one RTT sample per segment, matching the kernel traces the paper used).
func (c *Conn) onData(pkt *simnet.Packet, now simnet.Time) {
	if pkt.IsAck {
		return // misdelivered
	}
	switch {
	case pkt.Seq <= c.rcvNxt && pkt.Seq+int64(pkt.Len) > c.rcvNxt:
		// In-order (possibly partially duplicate) data advances the
		// cumulative point, then drains any overlapping cached segments.
		// Overlap tolerance matters: retransmissions may be resegmented at
		// different boundaries than the cached originals.
		c.rcvNxt = pkt.Seq + int64(pkt.Len)
		for drained := true; drained; {
			drained = false
			for seq, l := range c.ooo {
				end := seq + int64(l)
				if end <= c.rcvNxt {
					delete(c.ooo, seq) // stale: fully covered
					drained = true
					continue
				}
				if seq <= c.rcvNxt {
					c.rcvNxt = end
					delete(c.ooo, seq)
					drained = true
				}
			}
		}
	case pkt.Seq > c.rcvNxt:
		if l, ok := c.ooo[pkt.Seq]; !ok || pkt.Len > l {
			c.ooo[pkt.Seq] = pkt.Len
		}
	default:
		// fully duplicate data; re-ack
	}
	ack := &simnet.Packet{
		Flow:  c.flow,
		Src:   c.dst,
		Dst:   c.src,
		Size:  c.cfg.AckSize,
		IsAck: true,
		Ack:   c.rcvNxt,
	}
	if c.cfg.AckJitter > 0 {
		at := now.Add(simnet.Duration(c.jitter.Int63n(int64(c.cfg.AckJitter))))
		// Processing noise must not reorder the cumulative ACK stream.
		if at <= c.ackClock {
			at = c.ackClock + 1
		}
		c.ackClock = at
		c.net.Schedule(at, func() { c.net.Send(ack) })
		return
	}
	c.net.Send(ack)
}

// onAck runs at the sender.
func (c *Conn) onAck(pkt *simnet.Packet, now simnet.Time) {
	if !pkt.IsAck {
		return
	}
	defer func() {
		if c.OnAck != nil {
			c.OnAck(now)
		}
	}()
	if pkt.Ack > c.sndUna {
		acked := pkt.Ack - c.sndUna
		// RTT sample from the newest newly-acked, never-retransmitted
		// segment (Karn's algorithm honored by deletion in sendSegment).
		// The max-seq scan keeps the choice deterministic regardless of
		// map iteration order.
		bestSeq := int64(-1)
		for seq := range c.sendTimes {
			if seq < pkt.Ack && seq > bestSeq {
				bestSeq = seq
			}
		}
		if bestSeq >= 0 {
			c.updateRTT(now.Sub(c.sendTimes[bestSeq]))
		}
		for seq := range c.sendTimes {
			if seq < pkt.Ack {
				delete(c.sendTimes, seq)
			}
		}
		c.sndUna = pkt.Ack
		c.stats.BytesAcked += acked
		c.dupAcks = 0
		if c.inFastRecovery {
			if pkt.Ack >= c.recover {
				c.inFastRecovery = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ack: retransmit the next hole immediately.
				length := int(minI64(int64(c.cfg.MSS), c.appBytes-c.sndUna))
				if length > 0 {
					c.sendSegment(c.sndUna, length, true)
				}
			}
		} else if c.cwnd < c.ssthresh {
			c.cwnd++ // slow start
		} else {
			c.cwnd += 1 / c.cwnd // congestion avoidance
		}
		if c.cwnd > c.cfg.MaxCwnd {
			c.cwnd = c.cfg.MaxCwnd
		}
		if c.sndUna == c.sndNxt {
			c.timerEpoch++ // everything acked: cancel timer
			c.timerArmed = false
		} else {
			c.armTimer()
		}
		c.trySend()
		return
	}
	// Duplicate ACK.
	if c.sndUna == c.sndNxt {
		return // nothing outstanding; stray
	}
	c.dupAcks++
	if c.dupAcks == 3 && !c.inFastRecovery {
		c.stats.FastRetransmit++
		c.ssthresh = maxf(float64(c.segsInFlight())/2, 2)
		c.cwnd = c.ssthresh
		c.inFastRecovery = true
		c.recover = c.sndNxt
		length := int(minI64(int64(c.cfg.MSS), c.appBytes-c.sndUna))
		if length > 0 {
			c.sendSegment(c.sndUna, length, true)
		}
	}
}

func (c *Conn) updateRTT(sample simnet.Duration) {
	if sample <= 0 {
		return
	}
	c.stats.RTTSamples++
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.cfg.MinRTO {
		c.rto = c.cfg.MinRTO
	}
}

func (c *Conn) String() string {
	return fmt.Sprintf("tcp[flow=%d %d->%d cwnd=%.1f una=%d nxt=%d]",
		c.flow, c.src, c.dst, c.cwnd, c.sndUna, c.sndNxt)
}

// DebugState dumps the full connection state for diagnosis.
func (c *Conn) DebugState() string {
	return fmt.Sprintf(
		"cwnd=%.1f ssthresh=%.1f una=%d nxt=%d app=%d rcvNxt=%d ooo=%d rto=%v dupAcks=%d fastRec=%v timerArmed=%v stats=%+v",
		c.cwnd, c.ssthresh, c.sndUna, c.sndNxt, c.appBytes, c.rcvNxt, len(c.ooo),
		c.rto, c.dupAcks, c.inFastRecovery, c.timerArmed, c.stats)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
