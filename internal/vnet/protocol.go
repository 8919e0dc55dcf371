package vnet

import (
	"encoding/binary"
	"fmt"
	"io"

	"freemeasure/internal/obs"
)

// Message types on a VNET link.
const (
	msgHello byte = 1 // payload: daemon name (UTF-8)
	// msgFrame payload: [ttl:1][seq:8][ethernet frame]. seq is the
	// cumulative payload-byte count before this message; carrying it
	// explicitly lets the cumulative ACK semantics survive datagram loss
	// on virtual-UDP links (the ACK is the highest byte seen, so later
	// frames cover earlier losses, exactly as Wren's analysis expects).
	msgFrame   byte = 2
	msgAck     byte = 3 // payload: [highest received payload byte:8]
	msgControl byte = 4 // payload: opaque control blob (VTTIF/Wren pushes)
)

// msgHeaderLen is the [type:1][length:4] prefix of every link message.
const msgHeaderLen = 5

// frameHeaderLen is the ttl+seq prefix inside a msgFrame payload.
const frameHeaderLen = 9

// maxMessage bounds a single link message.
const maxMessage = 1 << 16

// readChunk is the per-TCP-link read buffer: one Read pulls up to this
// many stream bytes, and every complete message it brought in is parsed
// out of the buffer (see linkReader).
const readChunk = 16 << 10

// DefaultTTL is the hop limit stamped on frames entering the overlay;
// it bounds flooding loops when redundant links exist.
const DefaultTTL = 8

// appendMessage appends one wire message — header and payload contiguous —
// to buf, so a transport can hand it to the socket in a single write.
func appendMessage(buf []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxMessage {
		return buf, fmt.Errorf("vnet: message %d bytes exceeds limit", len(payload))
	}
	buf = append(buf, typ, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[len(buf)-4:], uint32(len(payload)))
	return append(buf, payload...), nil
}

// writeMessage frames one message and writes it with a single Write
// (handshake path; link transports keep their own assembly buffer).
func writeMessage(w io.Writer, typ byte, payload []byte) error {
	msg, err := appendMessage(make([]byte, 0, msgHeaderLen+len(payload)), typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(msg)
	return err
}

// messageLen decodes the payload length of the message header at the
// front of b, enforcing the message limit.
func messageLen(b []byte) (int, error) {
	n := binary.BigEndian.Uint32(b[1:msgHeaderLen])
	if n > maxMessage {
		return 0, fmt.Errorf("vnet: message length %d exceeds limit", n)
	}
	return int(n), nil
}

// readMessage reads exactly one message into a fresh buffer and never
// consumes a byte past it (handshake path; established TCP links read
// through a linkReader instead).
func readMessage(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [msgHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := messageLen(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a header with no payload behind it is a cut message too
		}
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// nextMessage splits the first message off a batch returned by
// linkReader.readBatch. Batches hold only whole, length-checked messages,
// so the split cannot fail.
func nextMessage(batch []byte) (typ byte, payload, rest []byte) {
	end := msgHeaderLen + int(binary.BigEndian.Uint32(batch[1:msgHeaderLen]))
	return batch[0], batch[msgHeaderLen:end], batch[end:]
}

// linkReader is the receive side of a TCP link. Instead of two exact
// reads per message it pulls the stream in readChunk-sized reads and
// hands back, per read, every complete message that read brought in — on
// a saturated link dozens of small frames per syscall, on an idle one
// exactly the single frame that arrived. A message larger than the chunk
// is finished with direct reads into its own buffer. The stream decodes
// to the same message sequence, and fails with the same error, as
// repeated readMessage calls.
type linkReader struct {
	r     io.Reader
	buf   []byte       // readChunk bytes; buf[off:end] is not yet returned
	off   int          // start of the (at most one, partial) pending message
	end   int          // end of the bytes read so far
	err   error        // read error seen after the bytes in buf
	reads *obs.Counter // one Inc per Read call (nil when uninstrumented)
}

func newLinkReader(r io.Reader, reads *obs.Counter) *linkReader {
	return &linkReader{r: r, buf: make([]byte, readChunk), reads: reads}
}

// readBatch blocks until at least one complete message is available and
// returns the wire bytes of every complete message the last Read
// delivered, back to back (walk them with nextMessage). The batch aliases
// the reader's buffer and is valid until the next call.
func (lr *linkReader) readBatch() ([]byte, error) {
	for {
		// Between calls the buffer holds at most one partial message.
		pending := lr.buf[lr.off:lr.end]
		if len(pending) >= msgHeaderLen {
			n, err := messageLen(pending)
			if err != nil {
				return nil, err
			}
			if msgHeaderLen+n > len(lr.buf) {
				return lr.readLarge(msgHeaderLen + n)
			}
		}
		if lr.err != nil {
			if lr.err == io.EOF && len(pending) > 0 {
				return nil, io.ErrUnexpectedEOF // the stream ended inside a message
			}
			return nil, lr.err
		}
		if lr.off > 0 {
			lr.end = copy(lr.buf, pending)
			lr.off = 0
		}
		n, err := lr.r.Read(lr.buf[lr.end:])
		lr.reads.Inc()
		lr.end += n
		lr.err = err
		if whole := wholeMessages(lr.buf[:lr.end]); whole > 0 {
			lr.off = whole
			return lr.buf[:whole], nil
		}
	}
}

// wholeMessages returns how many leading bytes of b are complete messages
// within the length limit; it stops at the first partial or over-limit
// header, which readBatch then examines.
func wholeMessages(b []byte) int {
	whole := 0
	for len(b)-whole >= msgHeaderLen {
		n, err := messageLen(b[whole:])
		if err != nil || len(b)-whole < msgHeaderLen+n {
			break
		}
		whole += msgHeaderLen + n
	}
	return whole
}

// readLarge finishes the pending message, which does not fit the chunk
// buffer, by reading exactly its remaining bytes into a buffer of its own.
func (lr *linkReader) readLarge(size int) ([]byte, error) {
	msg := make([]byte, size)
	got := copy(msg, lr.buf[lr.off:lr.end])
	lr.off, lr.end = 0, 0
	for got < size && lr.err == nil {
		n, err := lr.r.Read(msg[got:])
		lr.reads.Inc()
		got += n
		lr.err = err
	}
	if got < size {
		if lr.err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, lr.err
	}
	return msg, nil
}
