package vnet

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
)

// LinkStats counts a link's lifetime traffic.
type LinkStats struct {
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
}

// transport abstracts how a link's messages reach the peer: a TCP stream
// or a "virtual UDP connection" (paper section 3.1) — one message per
// datagram demultiplexed by source address.
type transport interface {
	send(typ byte, payload []byte) error
	close()
	kind() string // "tcp" or "udp"
}

// tcpTransport wraps a stream connection. Every message leaves in one
// write: header and payload are assembled contiguously in wbuf, which is
// reused across sends (zero allocations in steady state). All TCP sends
// run under the owning Link's writeMu, which is what guards wbuf.
type tcpTransport struct {
	conn net.Conn
	wbuf []byte
}

func (t *tcpTransport) send(typ byte, payload []byte) error {
	msg, err := appendMessage(t.wbuf[:0], typ, payload)
	if err != nil {
		return err
	}
	t.wbuf = msg
	_, err = t.conn.Write(msg)
	return err
}
func (t *tcpTransport) close()       { t.conn.Close() }
func (t *tcpTransport) kind() string { return "tcp" }

// Link is one VNET link: a TCP or virtual-UDP connection to a peer daemon,
// with an optional token-bucket rate limit emulating the capacity of the
// physical path underneath (on a localhost testbed every path would
// otherwise be equally instant).
//
// Traffic counters and the Wren sequence bookkeeping are atomics: they
// are written by the reader goroutine and by arbitrary sending goroutines
// concurrently. writeMu serializes only what must be serial — the wire
// ordering of outgoing messages and the token bucket.
type Link struct {
	daemon *Daemon
	peer   string
	tr     transport

	writeMu sync.Mutex
	// Token bucket (guarded by writeMu).
	rateMbps float64 // 0 = unlimited
	tokens   float64 // bytes available
	burst    float64 // bucket depth in bytes
	refillAt time.Time
	ackBuf   [8]byte // scratch for sendAck (guarded by writeMu)

	// Wren bookkeeping: cumulative payload bytes, as TCP sequence numbers.
	// sentBytes advances under writeMu; recvBytes/ackedBytes advance on
	// the receive path; all three may be read from any goroutine.
	sentBytes  atomic.Int64
	recvBytes  atomic.Int64
	ackedBytes atomic.Int64

	// Lifetime traffic counters (LinkStats).
	frSent atomic.Uint64
	frRecv atomic.Uint64
	bSent  atomic.Uint64
	bRecv  atomic.Uint64

	// Per-peer metric series, minted at registration (nil when the daemon
	// is uninstrumented).
	mFramesSent *obs.Counter
	mBytesSent  *obs.Counter

	mu     sync.Mutex
	closed bool
}

// Stats returns a snapshot of the counters.
func (l *Link) Stats() LinkStats {
	return LinkStats{
		FramesSent:     l.frSent.Load(),
		FramesReceived: l.frRecv.Load(),
		BytesSent:      l.bSent.Load(),
		BytesReceived:  l.bRecv.Load(),
	}
}

// SetRateMbps installs or changes the link's token-bucket rate limit
// (0 removes it).
func (l *Link) SetRateMbps(mbps float64) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.rateMbps = mbps
	// Keep the burst allowance small (a few frames): a deep bucket would
	// let message-sized bursts through at wire speed, hiding the link's
	// rate from Wren's passive trains.
	l.burst = 4 * 1500
	l.tokens = l.burst
	l.refillAt = time.Now()
}

// RateMbps returns the current token-bucket rate limit (0 = unlimited).
func (l *Link) RateMbps() float64 {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return l.rateMbps
}

// throttle blocks until the bucket holds n bytes. Called with writeMu held.
func (l *Link) throttle(n int) {
	if l.rateMbps <= 0 {
		return
	}
	for {
		now := time.Now()
		elapsed := now.Sub(l.refillAt).Seconds()
		l.refillAt = now
		l.tokens += elapsed * l.rateMbps * 1e6 / 8
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		if l.tokens >= float64(n) {
			l.tokens -= float64(n)
			return
		}
		need := float64(n) - l.tokens
		time.Sleep(time.Duration(need / (l.rateMbps * 1e6 / 8) * float64(time.Second)))
	}
}

// sendFramePayload writes an assembled msgFrame payload
// ([ttl][seq:8][frame]), stamping this link's cumulative sequence number
// into payload[1:9] in place — no copy, no allocation. The caller owns
// the buffer again once the call returns. The Wren departure record is
// emitted into the daemon's feed ring.
func (l *Link) sendFramePayload(payload []byte) error {
	l.writeMu.Lock()
	l.throttle(len(payload) + 5)
	seq := l.sentBytes.Load()
	binary.BigEndian.PutUint64(payload[1:9], uint64(seq))
	if err := l.tr.send(msgFrame, payload); err != nil {
		l.writeMu.Unlock()
		return err
	}
	l.sentBytes.Store(seq + int64(len(payload)))
	l.writeMu.Unlock()
	l.frSent.Add(1)
	l.bSent.Add(uint64(len(payload)))
	l.mFramesSent.Inc()
	l.mBytesSent.Add(uint64(len(payload)))
	l.daemon.met.BytesSent.Add(uint64(len(payload)))
	l.daemon.feedWren(pcap.Record{
		At:   time.Now().UnixNano(),
		Dir:  pcap.Out,
		Flow: pcap.FlowKey{Local: l.daemon.name, Remote: l.peer},
		Size: len(payload) + 5,
		Seq:  seq,
		Len:  len(payload),
	})
	return nil
}

// frameEnd returns the cumulative byte count a received message advances
// the link to (seq + payload length); ok is false for anything but a
// well-formed msgFrame.
func frameEnd(typ byte, payload []byte) (end int64, ok bool) {
	if typ != msgFrame || len(payload) < frameHeaderLen {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(payload[1:frameHeaderLen])) + int64(len(payload)), true
}

// framesArrived is the link's arrival accounting: frames up to cumulative
// byte end have reached this daemon, so recvBytes advances and one
// cumulative ACK goes back at once — before the frames are handled, so the
// sender's RTT (the self-clocking Wren observes) measures this link and
// never a downstream link's throttle or back-pressure. Each receive loop
// calls it at its own granularity: the TCP reader once per read batch, the
// datagram transports once per frame. Highest-byte semantics keep the ACK
// meaningful when virtual-UDP links lose or reorder datagrams.
func (l *Link) framesArrived(end int64) {
	// Monotonic max under concurrent delivery (virtual-UDP demux and TCP
	// readers may race on a re-registered link).
	for {
		cur := l.recvBytes.Load()
		if end <= cur || l.recvBytes.CompareAndSwap(cur, end) {
			break
		}
	}
	// A failed send is not handled here: the dead link surfaces as the
	// receive loop's own read error.
	_ = l.sendAck(l.recvBytes.Load())
	l.daemon.met.AcksSent.Inc()
}

// batchArrived runs the arrival accounting for one TCP read batch: a
// single cumulative ACK covering every complete frame the read brought in.
func (l *Link) batchArrived(batch []byte) {
	end, found := int64(0), false
	for len(batch) > 0 {
		var typ byte
		var payload []byte
		typ, payload, batch = nextMessage(batch)
		if e, ok := frameEnd(typ, payload); ok {
			end, found = max(end, e), true
		}
	}
	if found {
		l.framesArrived(end)
	}
}

// sendAck writes a cumulative acknowledgment (not rate limited: acks are
// tiny and limiting them would deadlock a saturated duplex link).
func (l *Link) sendAck(cum int64) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	binary.BigEndian.PutUint64(l.ackBuf[:], uint64(cum))
	return l.tr.send(msgAck, l.ackBuf[:])
}

// sendControl writes an opaque control payload (VTTIF/Wren matrix pushes).
func (l *Link) sendControl(payload []byte) error {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	return l.tr.send(msgControl, payload)
}

// close tears the link down.
func (l *Link) close() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if !already {
		l.tr.close()
	}
}
