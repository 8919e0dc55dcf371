package wren_test

import (
	"testing"
	"time"

	"freemeasure/internal/chaos"
	"freemeasure/internal/pcap"
	"freemeasure/internal/wren"
)

// TestChaosForwarderReconnectsWithCappedBackoff takes the trace repository
// down mid-stream via a chaos outage, keeps feeding the forwarder, and
// asserts the reconnect machinery: backoff doubles up to the configured
// cap (never past it), the forwarder stays disconnected for the outage,
// and once the repository comes back on the same address the stream
// resumes and the backoff resets.
func TestChaosForwarderReconnectsWithCappedBackoff(t *testing.T) {
	repo := wren.NewRepository(wren.Config{})
	addr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var repo2 *wren.Repository
	fab := chaos.NewOverlayFabric(nil)
	fab.RegisterService("repository", chaos.Service{
		Down: func() error { repo.Close(); return nil },
		Up: func() error {
			repo2 = wren.NewRepository(wren.Config{})
			_, err := repo2.Listen(addr)
			return err
		},
	})

	f, err := wren.NewForwarder(addr, "h1", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const base, cap = 10 * time.Millisecond, 80 * time.Millisecond
	wren.SetRetry(f, base, cap)

	rec := pcap.Record{Dir: pcap.Out, Flow: pcap.FlowKey{Local: "h1", Remote: "h2"}, Size: 1500, Len: 1460}
	pump := func() {
		f.FeedAll([]pcap.Record{rec})
		f.Flush()
	}

	// Healthy phase: the lazy dial happens on first flush.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pump()
		if _, records := repo.Received(); records > 0 && connected(f) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("repository never received the healthy-phase records")
		}
		time.Sleep(2 * time.Millisecond)
	}

	clear, err := fab.Inject(chaos.Fault{Kind: chaos.Outage}, "repository")
	if err != nil {
		t.Fatalf("inject outage: %v", err)
	}

	// Outage phase: feeding continues; the forwarder must fail, retry on a
	// doubling schedule, and saturate exactly at the cap.
	deadline = time.Now().Add(10 * time.Second)
	for {
		pump()
		backoff, next, connected := wren.RetryState(f)
		if backoff > cap {
			t.Fatalf("backoff %v exceeded cap %v", backoff, cap)
		}
		if backoff == cap && !connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backoff never reached the cap: backoff=%v next=%v connected=%v",
				backoff, next, connected)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Recovery phase: the repository returns on the same address; within a
	// few backoff windows the forwarder reconnects, resets its backoff, and
	// records flow again.
	clear()
	if repo2 == nil {
		t.Fatal("outage clear did not restart the repository")
	}
	defer repo2.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		pump()
		if _, records := repo2.Received(); records > 0 && connected(f) {
			break
		}
		if time.Now().After(deadline) {
			backoff, next, _ := wren.RetryState(f)
			t.Fatalf("never reconnected after restart: backoff=%v next=%v", backoff, next)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if backoff, _, _ := wren.RetryState(f); backoff != 0 {
		t.Fatalf("backoff = %v after successful reconnect, want 0", backoff)
	}
	// The restarted repository rebuilt a monitor for the origin.
	if _, ok := repo2.Monitor("h1"); !ok {
		t.Fatal("restarted repository has no monitor for origin h1")
	}
}

func connected(f *wren.Forwarder) bool {
	_, _, ok := wren.RetryState(f)
	return ok
}
