package eval

import (
	"math"

	"freemeasure/internal/estimator"
	"freemeasure/internal/simnet"
	"freemeasure/internal/wren"
)

// ProbeDriver turns an active estimator's Prober requests into paced probe
// trains over the simulated network: it owns both ends of a lightweight
// probe protocol (sequenced data packets out, cumulative ACKs back),
// measures per-packet RTTs, applies the same PCT/PDT trend test Wren uses
// on passive trains, and feeds the verdict back through Observe. One train
// is in flight at a time; CheckEvery paces how often the prober is asked
// for its next rate.
type ProbeDriver struct {
	net        *simnet.Network
	src, dst   simnet.HostID
	flow       simnet.FlowID
	est        estimator.Estimator
	prober     estimator.Prober
	checkEvery simnet.Duration

	seq     int64 // next sequence number across trains
	rcvNxt  int64 // receiver's cumulative-ack state (driver owns both ends)
	pending *probeTrain

	// Overhead accounting: every probe byte put on the wire, both
	// directions — the cost passive estimators never pay.
	BytesSent int64
	Probes    int
}

type probeTrain struct {
	rate    float64
	sendAt  []int64 // departure time per packet (ns)
	seqEnd  []int64 // Seq+Len per packet, for cumulative-ACK matching
	rtts    []int64 // -1 until matched
	matched int
}

// NewProbeDriver wires a driver for prober between src and dst on flow.
func NewProbeDriver(net *simnet.Network, src, dst simnet.HostID, flow simnet.FlowID,
	est estimator.Estimator, prober estimator.Prober, checkEvery simnet.Duration) *ProbeDriver {
	return &ProbeDriver{
		net: net, src: src, dst: dst, flow: flow,
		est: est, prober: prober, checkEvery: checkEvery,
	}
}

// Start registers both protocol ends and begins the probe loop.
func (d *ProbeDriver) Start() {
	d.net.Host(d.dst).Register(d.flow, d.receive)
	d.net.Host(d.src).Register(d.flow, d.ack)
	d.net.After(d.checkEvery, d.tick)
}

// receive is the probe sink: in-order data advances the cumulative ACK
// point, a hole (lost packet) freezes it — the duplicate-ACK loss
// signature. Every data packet triggers an ACK, as a delayed-ack-disabled
// TCP would.
func (d *ProbeDriver) receive(pkt *simnet.Packet, at simnet.Time) {
	if pkt.Seq == d.rcvNxt {
		d.rcvNxt = pkt.Seq + int64(pkt.Len)
	}
	d.BytesSent += 40
	d.net.Send(&simnet.Packet{
		Flow: d.flow, Src: d.dst, Dst: d.src,
		Size: 40, IsAck: true, Ack: d.rcvNxt,
	})
}

// ack matches a returning cumulative ACK against the in-flight train.
func (d *ProbeDriver) ack(pkt *simnet.Packet, at simnet.Time) {
	tr := d.pending
	if tr == nil {
		return
	}
	for i, end := range tr.seqEnd {
		if tr.rtts[i] < 0 && tr.sendAt[i] > 0 && pkt.Ack >= end && int64(at) > tr.sendAt[i] {
			tr.rtts[i] = int64(at) - tr.sendAt[i]
			tr.matched++
		}
	}
}

// tick asks the prober for its next train and launches it.
func (d *ProbeDriver) tick() {
	if d.pending != nil {
		d.net.After(d.checkEvery, d.tick)
		return
	}
	pr, ok := d.prober.NextProbe(int64(d.net.Now()))
	if !ok || pr.Packets <= 0 || pr.SizeBytes <= 0 || pr.RateMbps <= 0 {
		d.net.After(d.checkEvery, d.tick)
		return
	}
	d.launch(pr)
}

func (d *ProbeDriver) launch(pr estimator.Probe) {
	n := pr.Packets
	tr := &probeTrain{
		rate:   pr.RateMbps,
		sendAt: make([]int64, n),
		seqEnd: make([]int64, n),
		rtts:   make([]int64, n),
	}
	for i := range tr.rtts {
		tr.rtts[i] = -1
	}
	d.pending = tr
	d.Probes++
	// The driver owns both ends: align the receiver to this train's start
	// so a hole left by a previous train's tail loss cannot stall it.
	startSeq := d.seq
	d.rcvNxt = startSeq
	payload := pr.SizeBytes - 40
	if payload < 1 {
		payload = 1
	}
	gap := simnet.Duration(float64(pr.SizeBytes*8) / pr.RateMbps * 1e3) // ns
	for i := 0; i < n; i++ {
		i := i
		seq := startSeq + int64(i)*int64(payload)
		tr.seqEnd[i] = seq + int64(payload)
		d.net.After(gap*simnet.Duration(i), func() {
			tr.sendAt[i] = int64(d.net.Now())
			d.BytesSent += int64(pr.SizeBytes)
			d.net.Send(&simnet.Packet{
				Flow: d.flow, Src: d.src, Dst: d.dst,
				Size: pr.SizeBytes, Seq: seq, Len: payload,
			})
		})
	}
	d.seq = startSeq + int64(n)*int64(payload)
	// Allow the tail packet's ACK a queueing-inflated round trip before
	// judging the train.
	d.net.After(gap*simnet.Duration(n)+simnet.Milliseconds(300), func() { d.finalize(tr) })
}

// finalize analyzes the completed train exactly as the passive pipeline
// would: loss (unmatched packets) counts as congestion, otherwise the
// PCT/PDT trend over the measured RTTs decides, with the ambiguous band
// preserved.
func (d *ProbeDriver) finalize(tr *probeTrain) {
	d.pending = nil
	defer d.net.After(d.checkEvery, d.tick)

	n := len(tr.rtts)
	obs := estimator.Observation{
		At:         int64(d.net.Now()),
		RateMbps:   tr.rate,
		Departures: tr.sendAt,
		RTTs:       tr.rtts,
		Probe:      true,
	}
	minRTT := int64(math.MaxInt64)
	for _, r := range tr.rtts {
		if r >= 0 && r < minRTT {
			minRTT = r
		}
	}
	if minRTT == math.MaxInt64 {
		// Nothing came back at all: the train drowned.
		obs.Congested = true
		d.est.Observe(obs)
		return
	}
	obs.MinRTT = minRTT
	if float64(tr.matched)/float64(n) < wren.MinMatchedFrac {
		obs.Congested = true
		d.est.Observe(obs)
		return
	}
	obs.Congested, obs.Ambiguous = wren.Verdict(tr.rtts)
	d.est.Observe(obs)
}
