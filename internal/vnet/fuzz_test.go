package vnet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"freemeasure/internal/ethernet"
)

// FuzzReadMessage feeds the wire decoder arbitrary byte streams: it must
// never panic, never allocate past maxMessage, and never claim to have
// read a payload longer than the input supplied.
func FuzzReadMessage(f *testing.F) {
	var good bytes.Buffer
	writeMessage(&good, msgFrame, []byte("hello overlay"))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{msgHello, 0, 0, 0, 0})
	// Length field claiming more than the limit.
	huge := []byte{msgFrame, 0xff, 0xff, 0xff, 0xff}
	f.Add(huge)
	// Length field claiming more than the stream carries.
	f.Add([]byte{msgAck, 0, 0, 0, 8, 1, 2})

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readMessage(bytes.NewReader(b))
		if err != nil {
			return
		}
		if len(b) < 5 {
			t.Fatalf("decoded a message from %d bytes (< header)", len(b))
		}
		if typ != b[0] {
			t.Fatalf("type = %d, want first byte %d", typ, b[0])
		}
		want := binary.BigEndian.Uint32(b[1:5])
		if uint32(len(payload)) != want {
			t.Fatalf("payload %d bytes, header said %d", len(payload), want)
		}
		if want > maxMessage {
			t.Fatalf("accepted %d-byte message past the %d limit", want, maxMessage)
		}
		if int(want) > len(b)-5 {
			t.Fatalf("claimed %d payload bytes from a %d-byte stream", want, len(b))
		}
		if !bytes.Equal(payload, b[5:5+want]) {
			t.Fatal("payload does not match the wire bytes")
		}
	})
}

// FuzzReadMessageInto is the differential fuzzer for the link's chunked
// reader (it keeps the name of the pooled-buffer reader it replaced): the
// stream a‖b, delivered in arbitrary pieces chosen by split, must decode
// through linkReader to the same (type, payload) sequence and end in the
// same error as repeated readMessage calls over the whole stream.
func FuzzReadMessageInto(f *testing.F) {
	var one, two, ack, big bytes.Buffer
	writeMessage(&one, msgFrame, bytes.Repeat([]byte{0xaa}, 100))
	writeMessage(&two, msgControl, []byte("x"))
	f.Add(one.Bytes(), two.Bytes(), uint64(0))
	f.Add([]byte{}, []byte{}, uint64(1))
	// A batch of several messages in one piece, then a cut mid-header.
	writeMessage(&ack, msgAck, []byte{0, 0, 0, 0, 0, 0, 4, 0})
	f.Add(bytes.Repeat(one.Bytes(), 3), ack.Bytes()[:3], uint64(2))
	// A message larger than the chunk buffer followed by a small one.
	writeMessage(&big, msgControl, bytes.Repeat([]byte{0x5a}, readChunk+100))
	f.Add(big.Bytes(), two.Bytes(), uint64(3))
	// Over-limit length after a good message; EOF mid-payload.
	f.Add(one.Bytes(), []byte{msgFrame, 0xff, 0xff, 0xff, 0xff, 1, 2}, uint64(4))
	f.Add(one.Bytes(), one.Bytes()[:40], uint64(5))

	f.Fuzz(func(t *testing.T, a, b []byte, split uint64) {
		stream := append(append([]byte(nil), a...), b...)
		want, wantErr := decodeReference(bytes.NewReader(stream))
		got, gotErr := decodeChunked(&splitReader{data: stream, state: split})
		compareDecodes(t, got, gotErr, want, wantErr)
	})
}

// FuzzFramePayload walks the msgFrame payload structure — [ttl][seq][eth
// frame] — through the same parsing the daemon's receive path performs,
// on arbitrary bytes: header slicing must stay in bounds.
func FuzzFramePayload(f *testing.F) {
	frame, _ := (&ethernet.Frame{
		Dst: ethernet.VMMAC(1), Src: ethernet.VMMAC(2),
		Type: ethernet.TypeApp, Payload: []byte("data"),
	}).Marshal()
	good := append([]byte{DefaultTTL, 0, 0, 0, 0, 0, 0, 0, 0}, frame...)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderLen))
	f.Add(make([]byte, frameHeaderLen+ethernet.HeaderLen-1))

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < frameHeaderLen {
			return // receive path drops short payloads before parsing
		}
		ttl := b[0]
		seq := int64(binary.BigEndian.Uint64(b[1:9]))
		_ = ttl
		_ = seq
		raw := b[frameHeaderLen:]
		h, ok := ethernet.ParseHeader(raw)
		if ok != (len(raw) >= ethernet.HeaderLen) {
			t.Fatalf("ParseHeader ok=%v for %d raw bytes", ok, len(raw))
		}
		if !ok {
			return
		}
		fr, err := ethernet.Unmarshal(raw)
		if err != nil {
			t.Fatalf("header parsed but Unmarshal failed: %v", err)
		}
		if fr.Dst != h.Dst || fr.Src != h.Src || fr.Type != h.Type {
			t.Fatalf("fast-path header %+v != full decode %+v", h, fr)
		}
	})
}
