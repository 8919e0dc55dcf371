package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the one binary encoding of []Record. It carries the
// forwarder → repository stream (internal/wren) and trace files (file.go)
// alike:
//
//	stream   = preamble frame*
//	preamble = "WRENREC" version          (8 bytes, once per connection or file)
//	frame    = u32 length (big endian) body
//	body     = str origin, str trace, uvarint n, str*n, uvarint m, record*m
//	record   = uvarint Dir<<1|IsAck, uvarint local, uvarint remote,
//	           varint At-prevAt, varint Size, varint Seq, varint Len, varint Ack
//	str      = uvarint length, bytes
//
// varint is encoding/binary's zig-zag varint. The n strings are the
// frame's endpoint table: each distinct Flow.Local or Flow.Remote crosses
// once per frame and records carry indexes into it. At is a delta from the
// previous record's (0 before the first), taken and undone in wrapping
// int64 arithmetic, so every field of every record round-trips exactly,
// whatever its value and whatever the records' order.

const (
	magic   = "WRENREC"
	version = 1

	// maxFrame bounds a frame body. The decoder checks a frame's length
	// against it before allocating anything, so a corrupt or hostile
	// length costs nothing.
	maxFrame = 1 << 20
	// maxRecords bounds the records in one frame, so a frame's decoded
	// records (88 bytes each) never outweigh maxFrame either.
	maxRecords = 1 << 13
	// minRecord is the fewest bytes a record encodes to: one per field.
	minRecord = 8
)

var (
	errPreamble = errors.New("pcap: bad preamble")
	errCorrupt  = errors.New("pcap: corrupt frame")
	errTooLarge = errors.New("pcap: record does not fit a frame")
)

// Encoder builds frames in a buffer it keeps, so a steady stream of
// batches allocates nothing once the buffer has grown to the batch size.
// The zero value is ready to use.
type Encoder struct {
	buf   []byte
	recs  []byte            // the frame being built: its record bytes
	index map[string]uint64 // ...its endpoint table, by string
	table []string          // ...and in index order
	strs  int               // ...and the table's encoded size
}

// Reset empties the buffer, keeping its storage.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns everything appended since the last Reset. The slice is
// valid until the next call on e.
func (e *Encoder) Bytes() []byte { return e.buf }

// Preamble appends the preamble that opens every stream and file.
func (e *Encoder) Preamble() {
	e.buf = append(append(e.buf, magic...), version)
}

// Frame appends one frame carrying origin, trace and the longest prefix of
// recs that fits the frame bounds, and returns how many records it took:
// all of them unless the batch outgrows a frame. It fails, appending
// nothing, only when origin and trace with recs[0] (or, for an empty recs,
// alone) do not fit.
func (e *Encoder) Frame(origin, trace string, recs []Record) (int, error) {
	if e.index == nil {
		e.index = make(map[string]uint64)
	}
	clear(e.index)
	e.table, e.recs, e.strs = e.table[:0], e.recs[:0], 0
	head := strLen(origin) + strLen(trace)
	size := func(n int) int {
		return head + uvarintLen(len(e.table)) + e.strs + uvarintLen(n) + len(e.recs)
	}
	var prevAt int64
	n := 0
	for ; n < len(recs) && n < maxRecords; n++ {
		r := &recs[n]
		mark, tmark, smark := len(e.recs), len(e.table), e.strs
		flags := uint64(r.Dir) << 1
		if r.IsAck {
			flags |= 1
		}
		b := binary.AppendUvarint(e.recs, flags)
		b = binary.AppendUvarint(b, e.endpoint(r.Flow.Local))
		b = binary.AppendUvarint(b, e.endpoint(r.Flow.Remote))
		b = binary.AppendVarint(b, r.At-prevAt)
		b = binary.AppendVarint(b, int64(r.Size))
		b = binary.AppendVarint(b, r.Seq)
		b = binary.AppendVarint(b, int64(r.Len))
		e.recs = binary.AppendVarint(b, r.Ack)
		if size(n+1) > maxFrame {
			for _, s := range e.table[tmark:] {
				delete(e.index, s)
			}
			e.table, e.recs, e.strs = e.table[:tmark], e.recs[:mark], smark
			break
		}
		prevAt = r.At
	}
	if (n == 0 && len(recs) > 0) || size(0) > maxFrame {
		return 0, errTooLarge
	}
	b := binary.BigEndian.AppendUint32(e.buf, uint32(size(n)))
	b = appendStr(appendStr(b, origin), trace)
	b = binary.AppendUvarint(b, uint64(len(e.table)))
	for _, s := range e.table {
		b = appendStr(b, s)
	}
	b = binary.AppendUvarint(b, uint64(n))
	e.buf = append(b, e.recs...)
	return n, nil
}

// endpoint returns s's index in the frame's endpoint table, adding it. A
// batch usually names a handful of endpoints, and scanning those beats
// hashing; the index takes over once the table grows.
func (e *Encoder) endpoint(s string) uint64 {
	if len(e.table) <= 8 {
		for i, t := range e.table {
			if t == s {
				return uint64(i)
			}
		}
	} else if i, ok := e.index[s]; ok {
		return i
	}
	i := uint64(len(e.table))
	e.index[s] = i
	e.table = append(e.table, s)
	e.strs += strLen(s)
	return i
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func strLen(s string) int { return uvarintLen(len(s)) + len(s) }

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// Frame is one decoded frame: the sender's origin name, its encoded trace
// context (empty when untraced), and the records.
type Frame struct {
	Origin  string
	Trace   string
	Records []Record
}

// Decoder reads a stream of frames. The body buffer and record slice are
// reused from frame to frame and endpoint strings are interned, so
// steady-state decoding allocates nothing per record.
type Decoder struct {
	r      io.Reader
	opened bool // preamble read
	hdr    [len(magic) + 1]byte
	body   []byte
	recs   []Record
	table  []string
	intern map[string]string
	strs   int // bytes held by intern
}

// NewDecoder returns a decoder reading from r. Wrap a socket or file in a
// bufio.Reader: a frame is read as a length and then a body.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, intern: make(map[string]string)}
}

// Next reads the next frame, checking the preamble first if it has not
// been read. The frame's Records are owned by the decoder and overwritten
// by the next call. Next returns io.EOF at a clean end of stream (before
// the preamble or between frames) and io.ErrUnexpectedEOF for a stream cut
// inside one; a bad preamble, a length over the frame bound and a
// malformed body are errors that say which.
func (d *Decoder) Next() (Frame, error) {
	if !d.opened {
		if err := d.readPreamble(); err != nil {
			return Frame{}, err
		}
		d.opened = true
	}
	if _, err := io.ReadFull(d.r, d.hdr[:4]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:4])
	if n > maxFrame {
		return Frame{}, fmt.Errorf("%w: length %d exceeds the %d-byte bound", errCorrupt, n, maxFrame)
	}
	if cap(d.body) < int(n) {
		d.body = make([]byte, n)
	}
	d.body = d.body[:n]
	if _, err := io.ReadFull(d.r, d.body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return d.parse()
}

func (d *Decoder) readPreamble() error {
	got := d.hdr[:]
	if _, err := io.ReadFull(d.r, got); err != nil {
		return err
	}
	if !bytes.Equal(got[:len(magic)], []byte(magic)) {
		return fmt.Errorf("%w %q, want %q: not a Wren record stream (gob-era file or peer? upgrade both ends)",
			errPreamble, got, magic)
	}
	if got[len(magic)] != version {
		return fmt.Errorf("%w: codec version %d, this build reads %d", errPreamble, got[len(magic)], version)
	}
	return nil
}

// parse decodes d.body; see the grammar at the top of the file.
func (d *Decoder) parse() (Frame, error) {
	p := parser{b: d.body}
	f := Frame{Origin: d.str(p.str())}
	if t := p.str(); len(t) > 0 {
		f.Trace = string(t)
	}
	n := p.uvarint()
	if n > 2*maxRecords { // two endpoints per record at most
		p.fail("endpoint table of %d", n)
	}
	d.table = d.table[:0]
	for i := uint64(0); i < n && p.err == nil; i++ {
		d.table = append(d.table, d.str(p.str()))
	}
	m := p.uvarint()
	if m > maxRecords || m > uint64(len(p.b)/minRecord) {
		p.fail("%d records in %d bytes", m, len(p.b))
	}
	if p.err != nil {
		return Frame{}, p.err
	}
	if cap(d.recs) < int(m) {
		d.recs = make([]Record, m)
	}
	d.recs = d.recs[:m]
	var at int64
	for i := 0; i < len(d.recs) && p.err == nil; i++ {
		flags := p.uvarint()
		local, remote := p.endpoint(d.table), p.endpoint(d.table)
		at += p.varint()
		r := &d.recs[i]
		r.At, r.Dir, r.IsAck = at, Dir(flags>>1), flags&1 == 1
		r.Flow.Local, r.Flow.Remote = local, remote
		r.Size, r.Seq, r.Len, r.Ack = int(p.varint()), p.varint(), int(p.varint()), p.varint()
		if flags > 0x1ff {
			p.fail("flags %#x", flags)
		}
	}
	if len(p.b) > 0 {
		p.fail("%d trailing bytes", len(p.b))
	}
	if p.err != nil {
		return Frame{}, p.err
	}
	f.Records = d.recs
	return f, nil
}

// str returns b as a string, interned per decoder: a stream names the same
// few endpoints over and over. The table is bounded; a stream that keeps
// naming new ones just starts it over.
func (d *Decoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if len(d.intern) >= 1<<12 || d.strs+len(b) > maxFrame {
		clear(d.intern)
		d.strs = 0
	}
	s := string(b)
	d.intern[s] = s
	d.strs += len(s)
	return s
}

// parser reads a frame body front to back. The first failure sticks:
// later reads return zero values and consume nothing.
type parser struct {
	b   []byte
	err error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: "+format, append([]any{errCorrupt}, args...)...)
	}
	p.b = nil
}

func (p *parser) uvarint() uint64 {
	if len(p.b) > 0 && p.b[0] < 0x80 { // most fields fit one byte
		v := p.b[0]
		p.b = p.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.fail("bad varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

// varint undoes binary.AppendVarint's zig-zag mapping.
func (p *parser) varint() int64 {
	u := p.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (p *parser) str() []byte {
	n := p.uvarint()
	if n > uint64(len(p.b)) {
		p.fail("string of %d bytes", n)
		return nil
	}
	s := p.b[:n]
	p.b = p.b[n:]
	return s
}

func (p *parser) endpoint(table []string) string {
	i := p.uvarint()
	if i >= uint64(len(table)) {
		p.fail("endpoint index %d of %d", i, len(table))
		return ""
	}
	return table[i]
}
