package pcap

import (
	"bytes"
	"testing"
)

// feedBatch is the forwarder's default batch: 128 records of one origin
// spread over four remotes, the shape meshbench's measure_feed ships.
func feedBatch() []Record {
	recs := make([]Record, 128)
	for i := range recs {
		recs[i] = Record{At: int64(i) * 12_000, Dir: Out, Size: 1500, Seq: int64(i) * 1448, Len: 1448,
			Flow: FlowKey{Local: "origin3", Remote: []string{"remote0", "remote1", "remote2", "remote3"}[i%4]}}
		if i%3 == 2 {
			recs[i] = Record{At: int64(i) * 12_000, Dir: In, Size: 40, IsAck: true, Ack: int64(i) * 1448,
				Flow: recs[i].Flow}
		}
	}
	return recs
}

// BenchmarkFrameEncode measures one forwarder flush's encoding. Warm, the
// encoder must allocate nothing.
func BenchmarkFrameEncode(b *testing.B) {
	recs := feedBatch()
	var enc Encoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		if n, err := enc.Frame("origin3", "", recs); err != nil || n != len(recs) {
			b.Fatal(n, err)
		}
	}
	b.ReportMetric(float64(len(enc.Bytes()))/float64(len(recs)), "B/record")
}

// BenchmarkFrameDecode measures the repository's side of the same frame.
// Warm, the decoder must allocate nothing either.
func BenchmarkFrameDecode(b *testing.B) {
	var enc Encoder
	enc.Preamble()
	enc.Frame("origin3", "", feedBatch())
	stream := enc.Bytes()
	frame := stream[len(magic)+1:]
	var r bytes.Reader
	r.Reset(stream)
	dec := NewDecoder(&r)
	if _, err := dec.Next(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
