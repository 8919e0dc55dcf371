package wren

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/obs"
	"freemeasure/internal/pcap"
)

func repoPair(t *testing.T) (*Repository, *Forwarder) {
	t.Helper()
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(repo.Close)
	fw, err := DialRepository(addr, "origin-1", 32)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close() })
	return repo, fw
}

func waitRepo(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestRepositoryEndToEnd(t *testing.T) {
	repo, fw := repoPair(t)
	// A congested synthetic train plus its ACKs, then a closing record.
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*60*us })
	fw.FeedAll(outs)
	fw.FeedAll(acks)
	fw.FeedAll([]pcap.Record{{At: outs[19].At + 200_000_000, Dir: pcap.In, IsAck: true,
		Flow: pcap.FlowKey{Local: "a", Remote: "z"}}})
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRepo(t, "records at repository", func() bool {
		_, recs := repo.Received()
		return recs == 41
	})
	if n := repo.PollAll(); n != 1 {
		t.Fatalf("PollAll = %d, want 1 observation", n)
	}
	m, ok := repo.Monitor("origin-1")
	if !ok {
		t.Fatal("origin monitor missing")
	}
	est, ok := m.AvailableBandwidth("b")
	if !ok || est.Kind != estimator.UpperBound {
		t.Fatalf("est = %+v ok=%v", est, ok)
	}
	if got := repo.Origins(); len(got) != 1 || got[0] != "origin-1" {
		t.Fatalf("origins = %v", got)
	}
}

func TestForwarderFilters(t *testing.T) {
	_, fw := repoPair(t)
	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	fw.FeedAll([]pcap.Record{{Dir: pcap.Out, Flow: flow, Size: 1500}})            // kept
	fw.FeedAll([]pcap.Record{{Dir: pcap.In, IsAck: true, Flow: flow}})            // kept
	fw.FeedAll([]pcap.Record{{Dir: pcap.In, Flow: flow, Size: 1500}})             // filtered
	fw.FeedAll([]pcap.Record{{Dir: pcap.Out, IsAck: true, Flow: flow, Size: 40}}) // filtered
	fw.Flush()
	sent, filtered := fw.Stats()
	if sent != 2 || filtered != 2 {
		t.Fatalf("sent=%d filtered=%d", sent, filtered)
	}
}

func TestForwarderBatching(t *testing.T) {
	repo, fw := repoPair(t)
	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	// batchSize is 32: 31 records stay buffered, the 32nd triggers a send.
	for i := 0; i < 31; i++ {
		fw.FeedAll([]pcap.Record{{At: int64(i), Dir: pcap.Out, Flow: flow, Size: 1500}})
	}
	time.Sleep(30 * time.Millisecond)
	if b, _ := repo.Received(); b != 0 {
		t.Fatalf("premature flush: %d batches", b)
	}
	fw.FeedAll([]pcap.Record{{At: 31, Dir: pcap.Out, Flow: flow, Size: 1500}})
	waitRepo(t, "auto flush", func() bool {
		b, _ := repo.Received()
		return b == 1
	})
}

func TestForwarderCloseFlushes(t *testing.T) {
	repo, fw := repoPair(t)
	fw.FeedAll([]pcap.Record{{At: 1, Dir: pcap.Out,
		Flow: pcap.FlowKey{Local: "a", Remote: "b"}, Size: 1500}})
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	waitRepo(t, "flush on close", func() bool {
		_, recs := repo.Received()
		return recs == 1
	})
}

func TestRepositoryMultipleOrigins(t *testing.T) {
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, origin := range []string{"hostA", "hostB"} {
		fw, err := DialRepository(addr, origin, 4)
		if err != nil {
			t.Fatal(err)
		}
		fw.FeedAll([]pcap.Record{{At: 1, Dir: pcap.Out,
			Flow: pcap.FlowKey{Local: origin, Remote: "x"}, Size: 1500}})
		fw.Close()
	}
	waitRepo(t, "both origins", func() bool { return len(repo.Origins()) == 2 })
}

func TestForwarderReconnects(t *testing.T) {
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := DialRepository(addr, "origin-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close(); repo.Close() })
	SetRetry(fw, time.Millisecond, 10*time.Millisecond)
	fm := NewForwarderMetrics(obs.NewRegistry())
	fw.SetMetrics(fm)

	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	fw.FeedAll([]pcap.Record{{At: 1, Dir: pcap.Out, Flow: flow, Size: 1500}})
	waitRepo(t, "first record", func() bool {
		_, recs := repo.Received()
		return recs == 1
	})

	// Break the connection underneath the forwarder; the next flush must
	// fail, arm the backoff, and a later flush must redial and deliver.
	fw.mu.Lock()
	fw.conn.Close()
	fw.mu.Unlock()
	fw.FeedAll([]pcap.Record{{At: 2, Dir: pcap.Out, Flow: flow, Size: 1500}})
	waitRepo(t, "flush failure observed", func() bool { return fw.Flush() != nil })

	waitRepo(t, "reconnect and redelivery", func() bool {
		fw.FeedAll([]pcap.Record{{At: 3, Dir: pcap.Out, Flow: flow, Size: 1500}})
		_, recs := repo.Received()
		return fw.Flush() == nil && recs >= 2
	})
	if fm.Reconnects.Value() == 0 {
		t.Fatal("reconnect counter never incremented")
	}
	sent, _ := fw.Stats()
	if sent < 2 {
		t.Fatalf("sent = %d after reconnect", sent)
	}
}

func TestForwarderBoundsBufferWhileDown(t *testing.T) {
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := DialRepository(addr, "origin-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close(); repo.Close() })
	// Make every retry fail: break the conn and point redials at a dead
	// port, with an effectively infinite first backoff so no redial races.
	SetRetry(fw, time.Hour, time.Hour)
	fw.mu.Lock()
	fw.conn.Close()
	fw.addr = "127.0.0.1:1"
	fw.mu.Unlock()
	flow := pcap.FlowKey{Local: "a", Remote: "b"}
	for i := 0; i < 200; i++ {
		fw.FeedAll([]pcap.Record{{At: int64(i), Dir: pcap.Out, Flow: flow, Size: 1500}})
	}
	fw.mu.Lock()
	buffered := len(fw.batch)
	fw.mu.Unlock()
	if bound := 16 * 2; buffered > bound {
		t.Fatalf("buffer grew to %d records (bound %d)", buffered, bound)
	}
	if fw.Flush() == nil {
		t.Fatal("flush against dead repository reported success")
	}
}

func TestDialRepositoryValidation(t *testing.T) {
	if _, err := DialRepository("127.0.0.1:1", "", 0); err == nil {
		t.Fatal("empty origin accepted")
	}
	if _, err := DialRepository("127.0.0.1:1", "x", 0); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

// reflow copies records onto a different flow so one synthetic train can
// populate many (origin, remote) paths.
func reflow(recs []pcap.Record, local, remote string) []pcap.Record {
	out := append([]pcap.Record(nil), recs...)
	for i := range out {
		out[i].Flow = pcap.FlowKey{Local: local, Remote: remote}
	}
	return out
}

// TestRepositoryScanDeterministic is the regression test for the sorted
// scan contract: results come back ordered by origin then remote — never
// in map-iteration order — and repeated scans over unchanged state are
// byte-for-byte identical. The coordination tier's map builder keys a
// store off these results, so a flapping order would look like churn.
func TestRepositoryScanDeterministic(t *testing.T) {
	repo := NewRepository(Config{})
	defer repo.Close()

	// Deliberately populate origins and remotes in shuffled order.
	outs := mkOuts(0, 20, 100*us, 1500, 0)
	acks := mkAcks(outs, func(i int) int64 { return 1000*us + int64(i)*60*us })
	closing := pcap.Record{At: outs[19].At + 200_000_000, Dir: pcap.In, IsAck: true}
	for _, path := range [][2]string{
		{"h3", "h1"}, {"h1", "h3"}, {"h2", "h1"}, {"h1", "h2"}, {"h3", "h2"},
	} {
		m := repo.monitor(path[0])
		m.FeedAll(reflow(outs, path[0], path[1]))
		m.FeedAll(reflow(acks, path[0], path[1]))
		m.FeedAll(reflow([]pcap.Record{closing}, path[0], path[1]))
	}
	if n := repo.PollAll(); n != 5 {
		t.Fatalf("PollAll = %d, want 5 observations", n)
	}

	first := repo.Scan()
	want := [][2]string{
		{"h1", "h2"}, {"h1", "h3"}, {"h2", "h1"}, {"h3", "h1"}, {"h3", "h2"},
	}
	if len(first) != len(want) {
		t.Fatalf("Scan returned %d paths, want %d: %+v", len(first), len(want), first)
	}
	for i, w := range want {
		po := first[i]
		if po.Origin != w[0] || po.Remote != w[1] {
			t.Fatalf("Scan[%d] = %s>%s, want %s>%s (order must be sorted, not map order)",
				i, po.Origin, po.Remote, w[0], w[1])
		}
		if po.Estimate.Mbps <= 0 {
			t.Errorf("Scan[%d] %s>%s has no estimate: %+v", i, po.Origin, po.Remote, po.Estimate)
		}
		if po.At == 0 {
			t.Errorf("Scan[%d] %s>%s missing observation timestamp", i, po.Origin, po.Remote)
		}
	}
	// Map iteration order varies per run; repeated scans must not.
	for i := 0; i < 10; i++ {
		again := repo.Scan()
		if len(again) != len(first) {
			t.Fatalf("rescan %d returned %d paths, want %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("rescan %d diverged at %d: %+v vs %+v", i, j, again[j], first[j])
			}
		}
	}
}

// cutConn passes the first left bytes written through and then fails, the
// way a connection that dies in the middle of a write does.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.left])
	c.left = 0
	return n, errors.New("connection cut mid-frame")
}

// TestForwarderWriteFailsMidFrame: a flush whose write dies part-way
// through a frame drops the connection; the repository discards the cut
// frame with it, and the next flush redials and delivers the batch whole.
func TestForwarderWriteFailsMidFrame(t *testing.T) {
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := DialRepository(addr, "origin-1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close(); repo.Close() })
	SetRetry(fw, time.Millisecond, 10*time.Millisecond)
	received := func(batches, records uint64) func() bool {
		return func() bool {
			b, r := repo.Received()
			return b == batches && r == records
		}
	}

	fw.FeedAll(mkOuts(0, 10, 100*us, 1500, 0))
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRepo(t, "first batch", received(1, 10))

	fw.mu.Lock()
	fw.conn = &cutConn{Conn: fw.conn, left: 7}
	fw.mu.Unlock()
	fw.FeedAll(mkOuts(1_000*us, 10, 100*us, 1500, 14600))
	if err := fw.Flush(); err == nil {
		t.Fatal("flush over a cut connection reported success")
	}
	if _, _, connected := RetryState(fw); connected {
		t.Fatal("forwarder kept the connection its write failed on")
	}
	waitRepo(t, "repository to drop the cut connection", func() bool {
		repo.mu.Lock()
		defer repo.mu.Unlock()
		return len(repo.conns) == 0
	})
	if !received(1, 10)() {
		b, r := repo.Received()
		t.Fatalf("repository ingested part of a cut frame: %d batches, %d records", b, r)
	}

	waitRepo(t, "redial", func() bool { return fw.Flush() == nil })
	waitRepo(t, "the batch resent whole", received(2, 20))
	if sent, _ := fw.Stats(); sent != 20 {
		t.Fatalf("sent = %d, want 20", sent)
	}
}

// TestRepositoryReusesDecodeBuffers: the repository decodes every frame on
// a connection into the same buffers. Two consecutive batches must leave
// the monitor exactly where feeding it deep copies of them does.
func TestRepositoryReusesDecodeBuffers(t *testing.T) {
	repo := NewRepository(Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := DialRepository(addr, "origin-1", 1000) // one frame per batch
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fw.Close(); repo.Close() })
	train := func(t0 int64, gap, rtt int64) []pcap.Record {
		outs := mkOuts(t0, 20, gap, 1500, t0)
		recs := append(outs, mkAcks(outs, func(i int) int64 { return rtt + int64(i)*gap/2 })...)
		return append(reflow(recs, "a", "b"), reflow(recs, "a", "c")...)
	}
	batches := [][]pcap.Record{
		train(0, 100*us, 1000*us),
		append(train(500_000*us, 80*us, 700*us),
			pcap.Record{At: 900_000 * us, Dir: pcap.In, IsAck: true, Flow: pcap.FlowKey{Local: "a", Remote: "b"}},
			pcap.Record{At: 900_000 * us, Dir: pcap.In, IsAck: true, Flow: pcap.FlowKey{Local: "a", Remote: "c"}}),
	}
	local := NewMonitor("origin-1", Config{})
	total := 0
	for _, b := range batches {
		fw.FeedAll(b)
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		cp := make([]pcap.Record, len(b))
		for i, r := range b {
			r.Flow = pcap.FlowKey{Local: strings.Clone(r.Flow.Local), Remote: strings.Clone(r.Flow.Remote)}
			cp[i] = r
		}
		local.FeedAll(cp)
		total += len(b)
	}
	waitRepo(t, "both batches", func() bool {
		b, r := repo.Received()
		return b == 2 && r == uint64(total)
	})
	if got, want := repo.PollAll(), local.Poll(); got != want || got == 0 {
		t.Fatalf("observations: repository %d, deep-copy monitor %d", got, want)
	}
	got, want := repo.Scan(), local.Scan()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repository scan\n%+v\ndiffers from deep-copy monitor scan\n%+v", got, want)
	}
}

// FuzzRepositoryStream writes arbitrary bytes, after a valid preamble,
// into a repository connection: it must never panic, and must ingest
// exactly the frames a decoder accepts before the first bad one (frames
// without an origin are skipped).
func FuzzRepositoryStream(f *testing.F) {
	var enc pcap.Encoder
	enc.Frame("origin-1", "", mkOuts(0, 4, 100*us, 1500, 0))
	enc.Frame("", "", mkOuts(0, 1, 100*us, 1500, 0))
	f.Add(enc.Bytes())
	f.Add(enc.Bytes()[:len(enc.Bytes())-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pre pcap.Encoder
		pre.Preamble()
		stream := append(pre.Bytes(), data...)
		var wantBatches, wantRecords uint64
		dec := pcap.NewDecoder(bytes.NewReader(stream))
		for {
			fr, err := dec.Next()
			if err != nil {
				break
			}
			if fr.Origin != "" {
				wantBatches++
				wantRecords += uint64(len(fr.Records))
			}
		}

		repo := NewRepository(Config{})
		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			repo.serve(server)
			server.Close() // unblocks a writer the repository stopped reading
		}()
		go func() {
			defer wg.Done()
			client.Write(stream)
			client.Close()
		}()
		wg.Wait()
		if b, r := repo.Received(); b != wantBatches || r != wantRecords {
			t.Fatalf("repository ingested %d batches / %d records, decoder accepts %d / %d",
				b, r, wantBatches, wantRecords)
		}
	})
}
