package wren

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"freemeasure/internal/pcap"
)

// randomTrace builds a random but causally sane outgoing trace: bursts of
// random size/rate separated by random gaps, monotone timestamps and
// sequence numbers.
func randomTrace(rng *rand.Rand) []pcap.Record {
	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	var recs []pcap.Record
	at := int64(0)
	seq := int64(0)
	bursts := 1 + rng.Intn(20)
	for b := 0; b < bursts; b++ {
		n := 1 + rng.Intn(30)
		gap := int64(10_000 + rng.Intn(2_000_000)) // 10us..2ms
		for i := 0; i < n; i++ {
			recs = append(recs, pcap.Record{
				At: at, Dir: pcap.Out, Flow: flow, Size: 1500, Seq: seq, Len: 1460,
			})
			at += gap
			seq += 1460
		}
		at += int64(rng.Intn(200_000_000)) // 0..200ms idle
	}
	return recs
}

// TestScanInvariantsProperty checks the structural guarantees every caller
// relies on, for arbitrary traces:
//   - trains are disjoint, time-ordered, and within [MinTrain, MaxTrain+burst]
//   - every train's packets are a contiguous slice of the input
//   - tailStart is a valid index and no emitted train overlaps the tail
//   - ISR is finite and positive for multi-packet trains
func TestScanInvariantsProperty(t *testing.T) {
	cfg := ScanConfig{}.withDefaults()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomTrace(rng)
		trains, tail := ScanTrains(recs, farFuture, cfg)
		if tail < 0 || tail > len(recs) {
			t.Logf("seed %d: tail %d out of range", seed, tail)
			return false
		}
		prevEnd := int64(-1)
		for _, tr := range trains {
			if tr.Len() < cfg.MinTrain {
				t.Logf("seed %d: train shorter than MinTrain", seed)
				return false
			}
			if tr.Start <= prevEnd {
				t.Logf("seed %d: trains overlap", seed)
				return false
			}
			prevEnd = tr.End
			if tr.Start > tr.End {
				return false
			}
			if isr := tr.ISRMbps(); isr <= 0 || isr > 1e6 {
				t.Logf("seed %d: ISR %v", seed, isr)
				return false
			}
			// Packets are contiguous input records in order.
			for i := 1; i < len(tr.Packets); i++ {
				if tr.Packets[i].At < tr.Packets[i-1].At {
					return false
				}
			}
			if tail < len(recs) && tr.End >= recs[tail].At {
				t.Logf("seed %d: train overlaps pending tail", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalEqualsBatchProperty: feeding a trace in random chunks
// through the online monitor yields the same observation count as feeding
// it all at once — the online tail/defer machinery loses nothing.
func TestIncrementalEqualsBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		outs := randomTrace(rng)
		acks := mkAcks(outs, func(i int) int64 { return 500_000 + int64(rng.Intn(5_000)) })
		closing := pcap.Record{
			At: outs[len(outs)-1].At + 10_000_000_000, Dir: pcap.In, IsAck: true,
			Flow: pcap.FlowKey{Local: "a", Remote: "zz"},
		}

		batch := NewMonitor("a", Config{})
		batch.FeedAll(outs)
		batch.FeedAll(acks)
		batch.Feed(closing)
		batchN := batch.Poll()

		inc := NewMonitor("a", Config{})
		// Interleave outs and acks in time order, feeding in random chunk
		// sizes with a Poll between chunks.
		merged := append(append([]pcap.Record(nil), outs...), acks...)
		for i := 1; i < len(merged); i++ {
			for j := i; j > 0 && merged[j].At < merged[j-1].At; j-- {
				merged[j], merged[j-1] = merged[j-1], merged[j]
			}
		}
		incN := 0
		for len(merged) > 0 {
			n := 1 + rng.Intn(len(merged))
			inc.FeedAll(merged[:n])
			merged = merged[n:]
			incN += inc.Poll()
		}
		inc.Feed(closing)
		incN += inc.Poll()
		if batchN != incN {
			t.Logf("seed %d: batch %d vs incremental %d", seed, batchN, incN)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxDupAckRun covers the loss-signal primitive.
func TestMaxDupAckRun(t *testing.T) {
	acks := []pcap.Record{
		{At: 1, Ack: 100}, {At: 2, Ack: 100}, {At: 3, Ack: 100},
		{At: 4, Ack: 200}, {At: 5, Ack: 200},
		{At: 6, Ack: 300},
	}
	if got := MaxDupAckRun(acks, 0, 10); got != 3 {
		t.Fatalf("run = %d, want 3", got)
	}
	if got := MaxDupAckRun(acks, 4, 10); got != 2 {
		t.Fatalf("windowed run = %d, want 2", got)
	}
	if got := MaxDupAckRun(acks, 6, 10); got != 1 {
		t.Fatalf("single = %d, want 1", got)
	}
	if got := MaxDupAckRun(nil, 0, 10); got != 1 {
		t.Fatalf("empty = %d", got)
	}
}

// TestMonitorScanAgreesWithQueriesProperty: for arbitrary traces toward
// an arbitrary set of remotes, Scan is the per-remote queries read
// together — one row per Remotes() entry in the same sorted order, each
// carrying exactly what AvailableBandwidth and Latency answer and the
// time of the newest logged observation.
func TestMonitorScanAgreesWithQueriesProperty(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMonitor("a", Config{})
		newest := int64(0)
		for _, i := range rng.Perm(12)[:1+rng.Intn(8)] {
			remote := fmt.Sprintf("r%02d", i)
			outs := randomTrace(rng)
			acks := mkAcks(outs, func(int) int64 { return 500_000 + int64(rng.Intn(5_000)) })
			m.FeedAll(reflow(outs, "a", remote))
			m.FeedAll(reflow(acks, "a", remote))
			newest = max(newest, acks[len(acks)-1].At)
		}
		m.Feed(pcap.Record{At: newest + 10_000_000_000, Dir: pcap.In, IsAck: true,
			Flow: pcap.FlowKey{Local: "a", Remote: "zz"}})
		m.Poll()

		rows, remotes := m.Scan(), m.Remotes()
		if len(rows) != len(remotes) {
			t.Logf("seed %d: %d rows for %d remotes", seed, len(rows), len(remotes))
			return false
		}
		for i, po := range rows {
			est, bwOK := m.AvailableBandwidth(remotes[i])
			lat, latOK := m.Latency(remotes[i])
			obs := m.Observations(remotes[i], 0)
			if po.Origin != "a" || po.Remote != remotes[i] || po.Estimate != est || (po.Estimate.Count > 0) != bwOK ||
				po.LatencyMs != lat || po.LatencyOK != latOK || len(obs) == 0 || po.At != obs[len(obs)-1].At {
				t.Logf("seed %d: row %d = %+v, queries say %s %+v/%v %v/%v %d observations",
					seed, i, po, remotes[i], est, bwOK, lat, latOK, len(obs))
				return false
			}
			checked++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no trace produced a measured path: the property checked nothing")
	}
}
