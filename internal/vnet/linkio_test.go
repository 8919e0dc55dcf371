package vnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
)

// This file tests the batched TCP link I/O: the chunked reader against
// the one-message reference decoder, the syscall counts on a counting
// net.Conn, ACK-on-arrival, and the zero-allocation contract on real
// sockets.

type wireMsg struct {
	typ     byte
	payload []byte
}

// decodeReference decodes a stream with repeated readMessage calls.
func decodeReference(r io.Reader) ([]wireMsg, error) {
	var out []wireMsg
	for {
		typ, payload, err := readMessage(r)
		if err != nil {
			return out, err
		}
		out = append(out, wireMsg{typ, payload})
	}
}

// decodeChunked decodes a stream through a linkReader, batch by batch.
func decodeChunked(r io.Reader) ([]wireMsg, error) {
	var out []wireMsg
	lr := newLinkReader(r, nil)
	for {
		batch, err := lr.readBatch()
		if err != nil {
			return out, err
		}
		if len(batch) == 0 {
			return out, errors.New("readBatch returned an empty batch")
		}
		for len(batch) > 0 {
			var m wireMsg
			m.typ, m.payload, batch = nextMessage(batch)
			m.payload = bytes.Clone(m.payload) // the batch aliases the reader's buffer
			out = append(out, m)
		}
	}
}

func compareDecodes(t *testing.T, got []wireMsg, gotErr error, want []wireMsg, wantErr error) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("chunked reader decoded %d messages (err %v), reference %d (err %v)",
			len(got), gotErr, len(want), wantErr)
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("message %d: chunked (typ %d, %d bytes) != reference (typ %d, %d bytes)",
				i, got[i].typ, len(got[i].payload), want[i].typ, len(want[i].payload))
		}
	}
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("chunked reader ended with %v, reference with %v", gotErr, wantErr)
	}
}

// splitReader hands out data in pieces whose sizes an xorshift stream
// picks: mostly small, sometimes up to several chunk buffers.
type splitReader struct {
	data  []byte
	state uint64
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	n := 1 + int(s.state%97)
	if s.state%5 == 0 {
		n = 1 + int(s.state%(3*readChunk))
	}
	n = min(n, len(p), len(s.data))
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// testStream is a wire stream mixing every message type, empty payloads,
// runs of small frames and messages on either side of the chunk size.
func testStream(t *testing.T, rng *rand.Rand) []byte {
	t.Helper()
	var buf bytes.Buffer
	sizes := []int{0, 1, 8, 64, 1500, readChunk - msgHeaderLen - 1, readChunk - msgHeaderLen,
		readChunk - msgHeaderLen + 1, readChunk, 3 * readChunk, maxMessage}
	for i := 0; i < 60; i++ {
		n := rng.Intn(200)
		if i%4 == 0 {
			n = sizes[rng.Intn(len(sizes))]
		}
		payload := make([]byte, n)
		rng.Read(payload)
		if err := writeMessage(&buf, byte(1+rng.Intn(5)), payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestChunkedReaderMatchesReference: for any chunking of a byte stream
// the chunked reader yields the reference decoder's messages and error.
func TestChunkedReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	whole := testStream(t, rng)
	streams := map[string][]byte{
		"whole":              whole,
		"empty":              nil,
		"cut halfway":        whole[:len(whole)/2],
		"cut near the end":   whole[:len(whole)-7],
		"partial header":     append(bytes.Clone(whole), msgFrame, 0, 0),
		"over-limit trailer": append(bytes.Clone(whole), msgFrame, 0, 1, 0, 1),
		"over-limit first":   {msgControl, 0xff, 0xff, 0xff, 0xff, 1, 2, 3},
	}
	chunkings := map[string]func([]byte) io.Reader{
		"all at once": func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one byte":    func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":        func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+err":    func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"random 1":    func(b []byte) io.Reader { return &splitReader{data: b, state: 1} },
		"random 2":    func(b []byte) io.Reader { return &splitReader{data: b, state: 0x9e3779b97f4a7c15} },
	}
	for sname, stream := range streams {
		for cname, chunk := range chunkings {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				want, wantErr := decodeReference(chunk(stream))
				got, gotErr := decodeChunked(chunk(stream))
				compareDecodes(t, got, gotErr, want, wantErr)
			})
		}
	}
}

// TestChunkedReaderEOFMidMessage: a stream that ends inside a message is
// an error wherever the cut falls, never a short message.
func TestChunkedReaderEOFMidMessage(t *testing.T) {
	var buf bytes.Buffer
	writeMessage(&buf, msgFrame, bytes.Repeat([]byte{7}, 300))
	writeMessage(&buf, msgControl, bytes.Repeat([]byte{9}, readChunk+50))
	stream := buf.Bytes()
	first := msgHeaderLen + 300
	for _, cut := range []int{1, 4, 5, 100, first - 1, first + 1, first + 5, first + 6, len(stream) - 1} {
		got, err := decodeChunked(bytes.NewReader(stream[:cut]))
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want unexpected EOF", cut, err)
		}
		want := 0
		if cut >= first {
			want = 1 // the first message is whole, the cut falls in the second
		}
		if len(got) != want {
			t.Fatalf("cut at %d: decoded %d messages, want %d", cut, len(got), want)
		}
	}
	if _, err := decodeChunked(bytes.NewReader(stream)); err != io.EOF {
		t.Fatalf("whole stream ended with %v, want EOF", err)
	}
}

// TestChunkedReaderRejectsOverLimitBeforeAllocating: a forged length past
// the limit fails on the header alone — no payload-sized buffer is made
// and no further byte is read.
func TestChunkedReaderRejectsOverLimitBeforeAllocating(t *testing.T) {
	const runs = 50
	readers := make([]*linkReader, runs)
	sources := make([]*bytes.Reader, runs)
	for i := range readers {
		sources[i] = bytes.NewReader(append([]byte{msgFrame, 0x7f, 0xff, 0xff, 0xff}, make([]byte, 64)...))
		readers[i] = newLinkReader(iotest.OneByteReader(sources[i]), nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, lr := range readers {
		if _, err := lr.readBatch(); err == nil {
			t.Fatal("over-limit length accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 512 {
		t.Fatalf("rejecting an over-limit header allocated %d bytes", perRun)
	}
	for i, src := range sources {
		if consumed := 69 - src.Len(); consumed != msgHeaderLen {
			t.Fatalf("reader %d consumed %d bytes of a stream with a bad header, want %d", i, consumed, msgHeaderLen)
		}
	}
}

// countingConn is a net.Conn over an in-memory byte stream that counts
// Read and Write calls and keeps what was written, write by write. Once
// the stream is drained Read blocks until Close, like an idle socket.
type countingConn struct {
	mu      sync.Mutex
	in      []byte
	reads   int // Read calls that returned data
	writes  [][]byte
	discard bool // count nothing, keep nothing (allocation checks)
	closed  chan struct{}
	once    sync.Once
}

func newCountingConn(in []byte) *countingConn {
	return &countingConn{in: in, closed: make(chan struct{})}
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if len(c.in) > 0 {
		n := copy(p, c.in)
		c.in = c.in[n:]
		c.reads++
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()
	<-c.closed
	return 0, io.EOF
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.discard {
		c.writes = append(c.writes, bytes.Clone(p))
	}
	c.mu.Unlock()
	return len(p), nil
}

func (c *countingConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *countingConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *countingConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *countingConn) SetDeadline(time.Time) error      { return nil }
func (c *countingConn) SetReadDeadline(time.Time) error  { return nil }
func (c *countingConn) SetWriteDeadline(time.Time) error { return nil }

func (c *countingConn) snapshot() (reads int, writes [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, append([][]byte(nil), c.writes...)
}

// TestOneWritePerMessage: every message a TCP link sends — frame, ACK,
// control — reaches the socket in exactly one Write holding the whole
// message.
func TestOneWritePerMessage(t *testing.T) {
	d := NewDaemon("self")
	defer d.Close()
	conn := newCountingConn(nil)
	link := &Link{daemon: d, peer: "peer", tr: &tcpTransport{conn: conn}}
	const frames = 100
	want := 0
	for i := 0; i < frames; i++ {
		payload := framePayload(t, ethernet.VMMAC(2), ethernet.VMMAC(1), DefaultTTL, 10+13*i)
		if err := link.sendFramePayload(payload); err != nil {
			t.Fatal(err)
		}
		want++
		if i%10 == 0 {
			link.sendAck(int64(i))
			link.sendControl(bytes.Repeat([]byte{1}, 3*i))
			want += 2
		}
	}
	_, writes := conn.snapshot()
	if len(writes) != want {
		t.Fatalf("%d messages took %d Write calls", want, len(writes))
	}
	for i, w := range writes {
		if len(w) < msgHeaderLen || int(binary.BigEndian.Uint32(w[1:msgHeaderLen])) != len(w)-msgHeaderLen {
			t.Fatalf("write %d (%d bytes) is not exactly one message", i, len(w))
		}
	}
	conn.discard = true
	if allocs := testing.AllocsPerRun(100, func() { link.sendAck(1) }); allocs != 0 {
		t.Fatalf("steady-state send allocates %.1f times", allocs)
	}
}

// TestOneReadAndOneAckPerBatch: frames already queued on the socket are
// pulled in chunk-sized reads, and every read that delivered a complete
// frame is answered by exactly one cumulative ACK.
func TestOneReadAndOneAckPerBatch(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDaemon("self")
	d.SetMetrics(NewMetrics(reg))
	defer d.Close()
	dst := ethernet.VMMAC(2)
	var sink collector
	d.AttachVM(dst, sink.port())

	const frames = 1000
	var stream bytes.Buffer
	seq := 0
	for i := 0; i < frames; i++ {
		payload := framePayload(t, dst, ethernet.VMMAC(1), DefaultTTL, 50+i%100)
		binary.BigEndian.PutUint64(payload[1:frameHeaderLen], uint64(seq))
		seq += len(payload)
		writeMessage(&stream, msgFrame, payload)
	}
	queued := stream.Len()
	var hello bytes.Buffer
	writeMessage(&hello, msgHello, []byte("peer"))
	conn := newCountingConn(append(hello.Bytes(), stream.Bytes()...))
	if _, err := d.handshakeNamed(conn, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queued frames delivered", func() bool { return sink.count() == frames })

	reads, writes := conn.snapshot()
	reads -= 2 // the handshake reads the hello header and name exactly
	if limit := (queued+readChunk-1)/readChunk + 1; reads > limit {
		t.Fatalf("%d queued bytes took %d reads, want <= %d", queued, reads, limit)
	}
	// Every chunk here completes at least one frame (frames are far
	// smaller than the chunk), so ACKs and data reads pair up one to one.
	var acks []int64
	for _, w := range writes[1:] { // writes[0] is the hello reply
		if w[0] != msgAck || len(w) != msgHeaderLen+8 {
			t.Fatalf("unexpected write: type %d, %d bytes", w[0], len(w))
		}
		acks = append(acks, int64(binary.BigEndian.Uint64(w[msgHeaderLen:])))
	}
	if len(acks) != reads {
		t.Fatalf("%d ACKs for %d reads", len(acks), reads)
	}
	for i := 1; i < len(acks); i++ {
		if acks[i] <= acks[i-1] {
			t.Fatalf("ACKs not increasing: %v", acks)
		}
	}
	if last := acks[len(acks)-1]; last != int64(seq) {
		t.Fatalf("last ACK %d, want every queued byte %d", last, seq)
	}
	link, _ := d.Link("peer")
	if st := link.Stats(); st.FramesReceived != frames {
		t.Fatalf("link counted %d frames, want %d", st.FramesReceived, frames)
	}
	if got := d.met.AcksSent.Value(); got != uint64(len(acks)) {
		t.Fatalf("vnet_acks_sent_total = %d, want %d", got, len(acks))
	}
	if got := d.met.LinkReads.Value(); got != uint64(reads) {
		t.Fatalf("vnet_link_reads_total = %d, want %d", got, reads)
	}
}

// TestDeliveredFrameSurvivesBufferReuse: a VM port may keep the frames it
// is handed; the reader reusing its chunk buffer must not change them.
func TestDeliveredFrameSurvivesBufferReuse(t *testing.T) {
	a, b := pairT(t)
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	const frames = 300
	for i := 0; i < frames; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp,
			Payload: bytes.Repeat([]byte{byte(i)}, 200)})
	}
	waitFor(t, "delivery", func() bool { return sink.count() == frames })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, f := range sink.frames {
		if !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(i)}, 200)) {
			t.Fatalf("frame %d was overwritten after delivery", i)
		}
	}
}

// chainT builds a -> b -> c over loopback TCP with rules steering dst
// along the chain.
func chainT(t *testing.T, dst ethernet.MAC) (a, b, c *Daemon) {
	t.Helper()
	a, b, c = NewDaemon("a"), NewDaemon("b"), NewDaemon("c")
	t.Cleanup(func() { a.Close(); b.Close(); c.Close() })
	addrB, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrC, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Connect(addrC); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "chain links", func() bool {
		_, ab := b.Link("a")
		_, cb := c.Link("b")
		return ab && cb
	})
	a.AddRule(dst, "b")
	b.AddRule(dst, "c")
	return a, b, c
}

// TestAckReportsArrivalNotDownstreamProgress: the ACK for a frame leaves
// when the frame arrives, before it is relayed — so a slow egress at b
// (token bucket on b->c) never shows up in the RTTs Wren sees on a->b.
func TestAckReportsArrivalNotDownstreamProgress(t *testing.T) {
	dst := ethernet.VMMAC(3)
	a, b, c := chainT(t, dst)
	var sink collector
	c.AttachVM(dst, sink.port())
	egress, _ := b.Link("c")
	egress.SetRateMbps(1)

	const frames = 64
	payload := make([]byte, 1024)
	for i := 0; i < frames; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: payload})
	}
	ingress, _ := a.Link("b")
	waitFor(t, "a's burst fully acknowledged by b", func() bool {
		sent, _, acked := ingress.SeqState()
		return acked == sent
	})
	if fwd := b.Stats().FramesForwarded; fwd >= frames {
		t.Fatalf("b had already forwarded all %d frames when a's last byte was acknowledged: "+
			"the ACK waited for the throttled egress", fwd)
	}
	waitFor(t, "throttled delivery completes", func() bool { return sink.count() == frames })
}

// TestAcksSeenBySenderAreCumulative: over a plain pair and seeded random
// frame sizes, the ACKs the sender's Wren feed sees never go backwards,
// never exceed what was sent, and end exactly at sentBytes.
func TestAcksSeenBySenderAreCumulative(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		a, b := pairT(t)
		var mu sync.Mutex
		var acks []int64
		a.SetWrenBatchFeed(func(rs []pcap.Record) {
			mu.Lock()
			for _, r := range rs {
				if r.IsAck {
					acks = append(acks, r.Ack)
				}
			}
			mu.Unlock()
		})
		dst := ethernet.VMMAC(2)
		b.AttachVM(dst, func(*ethernet.Frame) {})
		a.AddRule(dst, "b")
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp,
				Payload: make([]byte, rng.Intn(1487))})
			if rng.Intn(50) == 0 {
				time.Sleep(time.Millisecond) // let the link go idle now and then
			}
		}
		link, _ := a.Link("b")
		sent, _, _ := link.SeqState()
		waitFor(t, "final ack in the feed", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(acks) > 0 && acks[len(acks)-1] == sent
		})
		mu.Lock()
		for i, ack := range acks {
			if ack > sent || (i > 0 && ack < acks[i-1]) {
				t.Fatalf("seed %d: ack %d = %d after %d, sent %d", seed, i, ack, acks[max(i-1, 0)], sent)
			}
		}
		if len(acks) > 500 {
			t.Fatalf("seed %d: %d ACKs for 500 frames", seed, len(acks))
		}
		mu.Unlock()
		a.Close()
		b.Close()
	}
}

// TestIdleLinkAcksEveryFrame: with the link idle between frames every
// read brings one frame, so every frame gets its own ACK as before.
func TestIdleLinkAcksEveryFrame(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := NewDaemon("a"), NewDaemon("b")
	b.SetMetrics(NewMetrics(reg))
	t.Cleanup(func() { a.Close(); b.Close() })
	addrB, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect(addrB); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.VMMAC(2)
	var sink collector
	b.AttachVM(dst, sink.port())
	a.AddRule(dst, "b")
	link, _ := a.Link("b")
	const frames = 20
	for i := 1; i <= frames; i++ {
		a.InjectFrame(&ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: make([]byte, 100)})
		waitFor(t, "frame acknowledged", func() bool {
			sent, _, acked := link.SeqState()
			return acked == sent && sink.count() == i
		})
	}
	if got := b.met.AcksSent.Value(); got != frames {
		t.Fatalf("%d ACKs for %d frames sent one at a time", got, frames)
	}
}

// TestTransitChainAllocationFree holds the zero-allocation relay contract
// on real sockets: 20k frames injected at a, relayed by b and dropped at
// c (no route there, so nothing is materialized) cost the whole process
// next to nothing in heap allocations.
func TestTransitChainAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	dst := ethernet.VMMAC(3)
	a, b, c := chainT(t, dst)
	f := &ethernet.Frame{Dst: dst, Src: ethernet.VMMAC(1), Type: ethernet.TypeApp, Payload: make([]byte, 64)}
	run := func(n uint64) {
		start := c.Stats().FramesDropped
		for i := uint64(0); i < n; i++ {
			a.InjectFrame(f)
		}
		waitFor(t, "frames through the chain", func() bool { return c.Stats().FramesDropped == start+n })
	}
	run(2000) // warm up: pool buffers, write buffers, socket buffers
	const frames = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(frames)
	runtime.ReadMemStats(&after)
	if got := b.Stats().FramesForwarded; got != frames+2000 {
		t.Fatalf("b forwarded %d frames", got)
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / frames
	t.Logf("%.4f mallocs per transit frame", perFrame)
	if perFrame >= 0.05 {
		t.Fatalf("%.3f mallocs per transit frame over a loopback TCP chain, want < 0.05", perFrame)
	}
}
