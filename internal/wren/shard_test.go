package wren

import (
	"fmt"
	"sync"
	"testing"

	"freemeasure/internal/pcap"
)

// Tests for the sharded monitor: batch/record-at-a-time equivalence,
// shard-count normalization, and concurrent feed/poll/query safety.

// TestFeedAllMatchesFeed: the batched ingest path must be observationally
// identical to record-at-a-time feeding — same stats, same remotes, same
// estimates after analysis.
func TestFeedAllMatchesFeed(t *testing.T) {
	build := func() []pcap.Record {
		var rs []pcap.Record
		for _, remote := range []string{"b", "c", "d"} {
			outs := mkOuts(0, 20, 100*us, 1500, 0)
			acks := mkAcks(outs, func(i int) int64 { return 1000 * us })
			for i := range outs {
				outs[i].Flow.Remote = remote
				acks[i].Flow.Remote = remote
			}
			rs = append(rs, outs...)
			rs = append(rs, acks...)
		}
		// Closing heartbeat so the trains age out of the scan tail.
		rs = append(rs, pcap.Record{At: 500_000_000, Dir: pcap.In, IsAck: true,
			Flow: pcap.FlowKey{Local: "a", Remote: "z"}})
		return rs
	}

	one, batch := NewMonitor("a", Config{}), NewMonitor("a", Config{})
	for _, r := range build() {
		one.Feed(r)
	}
	batch.FeedAll(build())

	if os, bs := one.Stats(), batch.Stats(); os != bs {
		t.Fatalf("pre-poll stats diverge: Feed %+v, FeedAll %+v", os, bs)
	}
	if n1, n2 := one.Poll(), batch.Poll(); n1 != n2 {
		t.Fatalf("Poll produced %d vs %d observations", n1, n2)
	}
	if r1, r2 := fmt.Sprint(one.Remotes()), fmt.Sprint(batch.Remotes()); r1 != r2 {
		t.Fatalf("remotes diverge: %s vs %s", r1, r2)
	}
	for _, remote := range []string{"b", "c", "d"} {
		e1, ok1 := one.AvailableBandwidth(remote)
		e2, ok2 := batch.AvailableBandwidth(remote)
		if ok1 != ok2 || e1 != e2 {
			t.Fatalf("estimate for %s diverges: %+v/%v vs %+v/%v", remote, e1, ok1, e2, ok2)
		}
	}
}

// TestMonitorConcurrentFeedPoll exercises sharded ingest, analysis, and
// queries from many goroutines at once (run with -race).
func TestMonitorConcurrentFeedPoll(t *testing.T) {
	m := NewMonitor("a", Config{})
	var feedersWG sync.WaitGroup
	const feeders, perFeeder = 4, 2000
	for g := 0; g < feeders; g++ {
		g := g
		feedersWG.Add(1)
		go func() {
			defer feedersWG.Done()
			remote := fmt.Sprintf("peer%d", g)
			r := pcap.Record{Dir: pcap.Out, Flow: pcap.FlowKey{Local: "a", Remote: remote},
				Size: 1500, Len: 1460}
			for i := 0; i < perFeeder; i++ {
				r.At = int64(i+1) * 100 * us
				r.Seq = int64(i) * 1460
				if i%64 == 0 {
					batch := make([]pcap.Record, 0, 8)
					for j := 0; j < 8; j++ {
						rr := r
						rr.At += int64(j)
						batch = append(batch, rr)
					}
					m.FeedAll(batch)
				} else {
					m.Feed(r)
				}
			}
		}()
	}
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Poll()
			for _, remote := range m.Remotes() {
				m.AvailableBandwidth(remote)
				m.Latency(remote)
				m.Observations(remote, 0)
			}
			m.Stats()
		}
	}()
	feedersWG.Wait()
	close(stop)
	<-pollerDone
	want := uint64(feeders * perFeeder)
	// Each i%64==0 iteration fed a batch of 8 instead of 1 record.
	want += uint64(feeders * ((perFeeder + 63) / 64) * 7)
	if got := m.Stats().OutRecords; got != want {
		t.Fatalf("OutRecords = %d, want %d", got, want)
	}
}
