package pcap

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// Bytes the gob-based format this codec replaced wrote for the same two
// records: a trace file (a gob stream of Records) and one forwarder batch
// (a gob-encoded {Origin, Records, Trace} struct).
const (
	gobEraTrace = "577f030101065265636f726401ff800001080102417401040001034469720106000104466c6f7701ff8200010453697a65010400010353657101040001034c656e0104000105497341636b010200010341636b01040000002aff8103010107466c6f774b657901ff8200010201054c6f63616c010c00010652656d6f7465010c00000019ff8001fe07d00201026831010268320001fe0bb802fe0b50001bff8001fe0fa00101010102683101026832000150030101fe0b5000"
	gobEraBatch = "3aff830301010a7472616365426174636801ff8400010301064f726967696e010c0001075265636f72647301ff860001055472616365010c0000001cff850201010d5b5d706361702e5265636f726401ff860001ff800000577f030101065265636f726401ff800001080102417401040001034469720106000104466c6f7701ff8200010453697a65010400010353657101040001034c656e0104000105497341636b010200010341636b01040000002aff8103010107466c6f774b657901ff8200010201054c6f63616c010c00010652656d6f7465010c00000039ff8401026831010201fe07d00201026831010268320001fe0bb802fe0b500001fe0fa00101010102683101026832000150030101fe0b500000"
)

// extremes are records no real capture produces: every int field at its
// limits, empty endpoints, a Local that is not the frame's origin, At
// running backwards, and Dir values past In.
func extremes() []Record {
	return []Record{
		{At: math.MaxInt64, Dir: Out, Flow: FlowKey{Local: "h1", Remote: "h2"}, Size: math.MaxInt, Seq: math.MaxInt64, Len: math.MaxInt, Ack: math.MaxInt64},
		{At: math.MinInt64, Dir: In, IsAck: true, Size: math.MinInt, Seq: math.MinInt64, Len: math.MinInt, Ack: math.MinInt64},
		{At: 0, Dir: 255, IsAck: true, Flow: FlowKey{Local: "", Remote: "h1"}, Size: -1, Seq: -1, Len: -1, Ack: -1},
		{At: -5, Dir: 7, Flow: FlowKey{Local: "not-the-origin", Remote: ""}},
		{At: 3, Flow: FlowKey{Local: "h1", Remote: "h2"}, Size: 1500, Seq: 1 << 40, Len: 1448},
		{At: 2, Dir: In, IsAck: true, Flow: FlowKey{Local: "h1", Remote: "h2"}, Size: 40, Ack: 1<<40 + 1448},
	}
}

// roundTrip encodes recs as frames (as many as the bounds need), decodes
// the stream, and requires it to give back exactly what went in.
func roundTrip(t *testing.T, origin, trace string, recs []Record) {
	t.Helper()
	var enc Encoder
	enc.Preamble()
	frames := 0
	for rest := recs; len(rest) > 0 || frames == 0; frames++ {
		n, err := enc.Frame(origin, trace, rest)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		rest = rest[n:]
	}
	dec := NewDecoder(bytes.NewReader(enc.Bytes()))
	var got []Record
	for i := 0; i < frames; i++ {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("decode frame %d of %d: %v", i, frames, err)
		}
		if f.Origin != origin || f.Trace != trace {
			t.Fatalf("frame %d: origin %q trace %q, want %q %q", i, f.Origin, f.Trace, origin, trace)
		}
		got = append(got, f.Records...)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after %d frames: %v, want io.EOF", frames, err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	roundTrip(t, "h1", "00-trace-01", extremes())
	roundTrip(t, "h1", "", nil)
	roundTrip(t, "", "", extremes()[:1])
}

// TestRecordCodecSplitsOversizedBatches: a batch over either frame bound
// goes out as several frames, each within the bounds, losing nothing.
func TestRecordCodecSplitsOversizedBatches(t *testing.T) {
	if unsafe.Sizeof(Record{})*maxRecords > maxFrame {
		t.Fatalf("maxRecords decoded records outweigh maxFrame")
	}
	many := make([]Record, 2*maxRecords+3)
	for i := range many {
		many[i] = Record{At: int64(i), Flow: FlowKey{Local: "h1", Remote: "h2"}, Seq: int64(i) * 1448, Len: 1448}
	}
	roundTrip(t, "h1", "", many)

	long := make([]Record, 5)
	for i := range long {
		long[i].Flow = FlowKey{Local: strings.Repeat(string(rune('a'+i)), maxFrame/3), Remote: "x"}
	}
	roundTrip(t, "h1", "", long)

	var enc Encoder
	huge := []Record{{Flow: FlowKey{Local: strings.Repeat("a", maxFrame)}}}
	if n, err := enc.Frame("h1", "", huge); !errors.Is(err, errTooLarge) || n != 0 || len(enc.Bytes()) != 0 {
		t.Fatalf("a record over the bound on its own: n=%d err=%v, %d bytes appended", n, err, len(enc.Bytes()))
	}
}

func encodedStream(t *testing.T, recs []Record) []byte {
	t.Helper()
	var enc Encoder
	enc.Preamble()
	if _, err := enc.Frame("h1", "", recs); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// TestFrameTruncated cuts a one-frame stream at every length: a cut at a
// boundary is a clean io.EOF, one inside the preamble or the frame is
// io.ErrUnexpectedEOF.
func TestFrameTruncated(t *testing.T) {
	stream := encodedStream(t, extremes())
	pre := len(magic) + 1
	for cut := 0; cut < len(stream); cut++ {
		_, err := NewDecoder(bytes.NewReader(stream[:cut])).Next()
		want := io.ErrUnexpectedEOF
		if cut == 0 || cut == pre {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("cut at %d of %d: err = %v, want %v", cut, len(stream), err, want)
		}
	}
}

// onlyHeader serves a preamble and a frame header, and fails the test if
// anything reads past them.
type onlyHeader struct {
	t *testing.T
	r *bytes.Reader
}

func (o onlyHeader) Read(p []byte) (int, error) {
	if o.r.Len() == 0 {
		o.t.Fatal("decoder read past an oversized frame header")
	}
	return o.r.Read(p)
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32([]byte(magic+"\x01"), maxFrame+1)
	dec := NewDecoder(onlyHeader{t, bytes.NewReader(hdr)})
	_, err := dec.Next()
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized length: err = %v", err)
	}
	if cap(dec.body) != 0 {
		t.Fatalf("decoder allocated %d bytes for a rejected frame", cap(dec.body))
	}
}

func TestGobEraInputRejected(t *testing.T) {
	batch, _ := hex.DecodeString(gobEraBatch)
	_, err := NewDecoder(bytes.NewReader(batch)).Next()
	if !errors.Is(err, errPreamble) || !strings.Contains(err.Error(), "preamble") {
		t.Fatalf("gob-era stream: err = %v", err)
	}

	trace, _ := hex.DecodeString(gobEraTrace)
	path := filepath.Join(t.TempDir(), "old.gob")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadTrace(path)
	if !errors.Is(err, errPreamble) || !strings.Contains(err.Error(), "preamble") || len(recs) != 0 {
		t.Fatalf("gob-era trace file: %d records, err = %v", len(recs), err)
	}

	future := encodedStream(t, extremes())
	future[len(magic)] = version + 1
	if _, err := NewDecoder(bytes.NewReader(future)).Next(); !errors.Is(err, errPreamble) {
		t.Fatalf("unknown codec version: err = %v", err)
	}
}

// TestDecoderReusesBuffers: a warm decoder allocates nothing per frame,
// and every frame's records land in the same slice (the reason a consumer
// must copy what it keeps).
func TestDecoderReusesBuffers(t *testing.T) {
	var enc Encoder
	enc.Preamble()
	enc.Frame("h1", "", extremes())
	stream := enc.Bytes()
	frame := stream[len(magic)+1:]
	r := bytes.NewReader(stream)
	dec := NewDecoder(r)
	first, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	var next Frame
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if next, err = dec.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %.1f times per frame", allocs)
	}
	if &next.Records[0] != &first.Records[0] {
		t.Fatal("the next frame was decoded into a new record slice")
	}
}

// recordsFrom maps fuzz bytes onto records, so every field, endpoint and
// ordering the codec must preserve is reachable.
func recordsFrom(data []byte) []Record {
	next := func(n int) []byte {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return b[:n]
	}
	var recs []Record
	for len(data) > 0 {
		flags := next(1)[0]
		r := Record{Dir: Dir(next(1)[0]), IsAck: flags&1 == 1}
		r.Flow.Local = string(next(int(flags>>1) % 4))
		r.Flow.Remote = string(next(int(flags>>3) % 4))
		r.At = int64(binary.LittleEndian.Uint64(next(8)))
		r.Size = int(int64(binary.LittleEndian.Uint64(next(8))))
		r.Seq = int64(binary.LittleEndian.Uint64(next(8)))
		r.Len = int(int64(binary.LittleEndian.Uint64(next(8))))
		r.Ack = int64(binary.LittleEndian.Uint64(next(8)))
		recs = append(recs, r)
	}
	return recs
}

// FuzzRecordCodec checks both directions on the same input: decoding it as
// a stream never panics and never holds more than the frame bounds, and
// the records it maps to survive encode → decode unchanged.
func FuzzRecordCodec(f *testing.F) {
	var enc Encoder
	enc.Frame("h1", "00-trace-01", extremes())
	f.Add(enc.Bytes())
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(binary.BigEndian.AppendUint32(nil, 0))
	f.Add([]byte{0, 0, 0, 6, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	gob, _ := hex.DecodeString(gobEraBatch)
	f.Add(gob)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(append([]byte(magic+"\x01"), data...)))
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
			if cap(dec.body) > maxFrame || cap(dec.recs) > maxRecords || len(dec.table) > 2*maxRecords {
				t.Fatalf("decoder holds %d body bytes / %d records / %d endpoints, past the bounds",
					cap(dec.body), cap(dec.recs), len(dec.table))
			}
		}
		roundTrip(t, "h1", "", recordsFrom(data))
	})
}
