package wren

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"freemeasure/internal/estimator"
	"freemeasure/internal/pcap"
)

// servedMonitor returns a monitor preloaded with one congested and one
// uncongested observation toward "b", behind an httptest SOAP server.
func servedMonitor(t *testing.T) (*Monitor, *Client, func()) {
	t.Helper()
	m := NewMonitor("a", Config{})
	// Uncongested train at ~120 Mbit/s equivalents... build two synthetic
	// trains: one flat at low rate, one rising at high rate.
	outs1 := mkOuts(0, 10, 1000*us, 1500, 0) // 12 Mbit/s
	acks1 := mkAcks(outs1, func(i int) int64 { return 1000 * us })
	seq2 := outs1[9].Seq + 1460
	outs2 := mkOuts(200_000_000, 10, 100*us, 1500, seq2) // 120 Mbit/s
	acks2 := mkAcks(outs2, func(i int) int64 { return 1000*us + int64(i)*100*us })
	m.FeedAll(outs1)
	m.FeedAll(acks1)
	m.FeedAll(outs2)
	m.FeedAll(acks2)
	m.Feed(pcap.Record{At: 10_000_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "z"}, Ack: 0})
	if n := m.Poll(); n != 2 {
		t.Fatalf("Poll = %d, want 2", n)
	}
	ts := httptest.NewServer(NewService(m))
	return m, NewClient(ts.URL), ts.Close
}

func TestServiceAvailableBandwidth(t *testing.T) {
	m, c, closeFn := servedMonitor(t)
	defer closeFn()
	est, found, err := c.AvailableBandwidth("b")
	if err != nil || !found {
		t.Fatalf("err=%v found=%v", err, found)
	}
	want, _ := m.AvailableBandwidth("b")
	want.At = 0 // the wire form carries no observation time
	if est != want {
		t.Fatalf("client est = %+v, server est = %+v", est, want)
	}
	if est.Kind != estimator.Exact {
		t.Fatalf("kind = %v (one flat low train, one rising high train)", est.Kind)
	}
	if est.Mbps < 12 || est.Mbps > 120 {
		t.Fatalf("estimate = %v, want between the two ISRs", est.Mbps)
	}
}

func TestServiceNotFound(t *testing.T) {
	_, c, closeFn := servedMonitor(t)
	defer closeFn()
	_, found, err := c.AvailableBandwidth("unknown-host")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found = true for unknown remote")
	}
}

func TestServiceLatency(t *testing.T) {
	_, c, closeFn := servedMonitor(t)
	defer closeFn()
	ms, found, err := c.Latency("b")
	if err != nil || !found {
		t.Fatalf("err=%v found=%v", err, found)
	}
	if ms != 0.5 {
		t.Fatalf("latency = %v, want 0.5 ms", ms)
	}
}

func TestServiceRemotes(t *testing.T) {
	_, c, closeFn := servedMonitor(t)
	defer closeFn()
	remotes, err := c.Remotes()
	if err != nil {
		t.Fatal(err)
	}
	if len(remotes) != 1 || remotes[0] != "b" {
		t.Fatalf("remotes = %v", remotes)
	}
}

func TestServiceObservations(t *testing.T) {
	m, c, closeFn := servedMonitor(t)
	defer closeFn()
	obs, err := c.Observations("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Observations("b", 0)
	if len(obs) != len(want) {
		t.Fatalf("len = %d, want %d", len(obs), len(want))
	}
	for i := range obs {
		if !reflect.DeepEqual(obs[i], want[i]) {
			t.Fatalf("obs[%d] = %+v, want %+v", i, obs[i], want[i])
		}
	}
	// Incremental fetch from the last seen timestamp returns nothing new.
	newer, err := c.Observations("b", obs[len(obs)-1].At)
	if err != nil {
		t.Fatal(err)
	}
	if len(newer) != 0 {
		t.Fatalf("incremental fetch returned %d", len(newer))
	}
}

func TestServiceEmptyRemoteFaults(t *testing.T) {
	_, c, closeFn := servedMonitor(t)
	defer closeFn()
	_, _, err := c.AvailableBandwidth("")
	if err == nil {
		t.Fatal("expected fault for empty remote")
	}
}
