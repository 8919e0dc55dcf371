package simnet

// LinkStats aggregates a link's lifetime counters. BytesSent counts bytes
// whose transmission completed; Busy accumulates transmission time, so
// Busy/elapsed is the link's utilization — the simulator's stand-in for
// SNMP byte counters on the congested router.
type LinkStats struct {
	Enqueued  uint64
	Dropped   uint64 // droptail queue overflows
	Lost      uint64 // dropped by the interceptor
	Delivered uint64
	BytesSent uint64
	Busy      Duration
	MaxQueue  int // high-water mark of queued bytes
}

// Link is a unidirectional channel between two hosts with a fixed
// transmission rate, propagation delay, and a droptail queue bounded in
// bytes. Transmission time is Size*8/RateMbps microseconds-exact; a packet
// arrives at the far end one propagation delay after its last bit leaves.
type Link struct {
	net      *Network
	from, to HostID
	rateMbps float64
	delay    Duration
	queueCap int // bytes

	queue       []*Packet
	queuedBytes int
	busy        bool

	intercept Interceptor

	stats LinkStats
}

// Verdict is an Interceptor's decision about one packet. The zero value
// passes the packet through untouched.
type Verdict struct {
	// Drop discards the packet before it reaches the queue (counted as
	// Lost).
	Drop bool
	// Duplicate enqueues a second copy alongside the original.
	Duplicate bool
	// ExtraDelay holds the packet off the queue for this long before it
	// contends for the wire. Varying it per packet reorders arrivals.
	ExtraDelay Duration
}

// Interceptor inspects every packet offered to the link — the hook the
// chaos fault-injection layer uses for loss, duplication, added
// latency/jitter, reordering, and partitions. It runs on the simulator
// goroutine, so implementations need no locking but must be deterministic
// for replayable runs.
type Interceptor func(pkt *Packet) Verdict

// SetInterceptor installs (or, with nil, removes) the link's packet
// interceptor.
func (l *Link) SetInterceptor(fn Interceptor) { l.intercept = fn }

// RateMbps returns the configured transmission rate.
func (l *Link) RateMbps() float64 { return l.rateMbps }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetRate changes the link's rate mid-run (Nistnet-style reconfiguration).
// The packet currently being serialized finishes at the old rate.
func (l *Link) SetRate(mbps float64) {
	if mbps <= 0 {
		panic("simnet: non-positive link rate")
	}
	l.rateMbps = mbps
}

// txTime returns how long size bytes occupy the wire.
func (l *Link) txTime(size int) Duration {
	bits := float64(size) * 8
	sec := bits / (l.rateMbps * 1e6)
	return Duration(sec * float64(Second))
}

// enqueue accepts a packet for transmission, dropping it if the
// interceptor says so or the queue is full (droptail).
func (l *Link) enqueue(pkt *Packet) {
	if l.intercept != nil {
		v := l.intercept(pkt)
		if v.Drop {
			l.stats.Lost++
			return
		}
		if v.Duplicate {
			dup := *pkt
			if v.ExtraDelay > 0 {
				l.net.sim.After(v.ExtraDelay, func() { l.offer(&dup) })
			} else {
				l.offer(&dup)
			}
		}
		if v.ExtraDelay > 0 {
			l.net.sim.After(v.ExtraDelay, func() { l.offer(pkt) })
			return
		}
	}
	l.offer(pkt)
}

// offer is the post-interceptor enqueue path: the droptail queue or the
// wire.
func (l *Link) offer(pkt *Packet) {
	if l.busy && l.queuedBytes+pkt.Size > l.queueCap {
		l.stats.Dropped++
		return
	}
	l.stats.Enqueued++
	if l.busy {
		l.queue = append(l.queue, pkt)
		l.queuedBytes += pkt.Size
		if l.queuedBytes > l.stats.MaxQueue {
			l.stats.MaxQueue = l.queuedBytes
		}
		return
	}
	l.transmit(pkt)
}

// transmit serializes pkt onto the wire and schedules its arrival and the
// next dequeue.
func (l *Link) transmit(pkt *Packet) {
	l.busy = true
	sim := l.net.sim
	// The sending host's NIC begins serializing now: fire its out-capture.
	l.net.hosts[l.from].captureOut(pkt, sim.Now())
	tx := l.txTime(pkt.Size)
	l.stats.Busy += tx
	sim.After(tx, func() {
		l.stats.Delivered++
		l.stats.BytesSent += uint64(pkt.Size)
		// Last bit on the wire; arrival after propagation delay.
		sim.After(l.delay, func() { l.net.arrive(l.to, pkt) })
		if len(l.queue) > 0 {
			next := l.queue[0]
			l.queue = l.queue[1:]
			l.queuedBytes -= next.Size
			l.transmit(next)
		} else {
			l.busy = false
		}
	})
}
