package vnet

import (
	"sync"
	"testing"

	"freemeasure/internal/pcap"
)

// TestProbeTrainDiesAtPeerAndFeedsWren: a probe train reaches the peer,
// is acknowledged (the measurement), is never delivered to any VM or
// forwarded onward, and produces the departure/ACK records the passive
// monitor consumes.
func TestProbeTrainDiesAtPeerAndFeedsWren(t *testing.T) {
	a, b := pairT(t)
	var sink collector
	b.AttachVM(probeSinkMAC(t), sink.port())

	var mu sync.Mutex
	var recs []pcap.Record
	a.SetWrenBatchFeed(func(rs []pcap.Record) {
		mu.Lock()
		recs = append(recs, rs...)
		mu.Unlock()
	})

	if err := a.Probe("b", 50, 10, 1000); err != nil {
		t.Fatal(err)
	}
	link, _ := a.Link("b")
	waitFor(t, "probe train acked", func() bool {
		sent, _, acked := link.SeqState()
		return sent > 0 && acked >= sent
	})
	// SeqState moves on the link's own goroutines; the records reach the
	// sink later, from the analyzer goroutine. Wait on the records.
	count := func() (outs, acks int) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			switch {
			case r.Dir == pcap.Out && !r.IsAck:
				outs++
			case r.Dir == pcap.In && r.IsAck:
				acks++
			}
		}
		return outs, acks
	}
	waitFor(t, "probe departures and an ACK in the feed", func() bool {
		outs, acks := count()
		return outs >= 10 && acks >= 1
	})

	if got := sink.count(); got != 0 {
		t.Fatalf("probe frames delivered to a VM: %d", got)
	}
	bs := b.Stats()
	if bs.FramesDelivered != 0 || bs.FramesForwarded != 0 {
		t.Fatalf("peer delivered %d / forwarded %d probe frames, want 0/0",
			bs.FramesDelivered, bs.FramesForwarded)
	}

	if outs, _ := count(); outs != 10 {
		t.Fatalf("wren saw %d probe departures, want 10", outs)
	}
}

// probeSinkMAC is a VM MAC that must never match a probe destination.
func probeSinkMAC(t *testing.T) (m [6]byte) {
	t.Helper()
	return [6]byte{0x52, 0x54, 0x00, 0, 0, 9}
}

// TestProbeValidation: bad arguments and unknown peers are rejected.
func TestProbeValidation(t *testing.T) {
	a, _ := pairT(t)
	if err := a.Probe("nobody", 10, 5, 1000); err == nil {
		t.Fatal("probe to unknown peer succeeded")
	}
	if err := a.Probe("b", 0, 5, 1000); err == nil {
		t.Fatal("probe at zero rate succeeded")
	}
	if err := a.Probe("b", 10, 0, 1000); err == nil {
		t.Fatal("probe with zero packets succeeded")
	}
}
