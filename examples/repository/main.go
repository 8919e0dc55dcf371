// Repository: the paper's second Wren deployment mode (section 2) — the
// packet traces are "filtered for useful observations and transmitted to a
// remote repository for analysis". Two VNET daemons exchange rate-limited
// traffic; each ships its filtered trace to a central repository, which
// runs the analysis and answers for every origin.
//
//	go run ./examples/repository
package main

import (
	"fmt"
	"log"
	"time"

	"freemeasure/internal/ethernet"
	"freemeasure/internal/vnet"
	"freemeasure/internal/wren"
)

func main() {
	repo := wren.NewRepository(wren.Config{
		Scan: wren.ScanConfig{MaxGap: 20_000_000, BurstGap: 1_000_000},
	})
	repoAddr, err := repo.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer repo.Close()
	fmt.Println("repository listening on", repoAddr)

	// Two daemons, a 20 Mbit/s path between them, traces forwarded.
	a, b := vnet.NewDaemon("hostA"), vnet.NewDaemon("hostB")
	defer a.Close()
	defer b.Close()
	addrB, err := b.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := a.Connect(addrB); err != nil {
		log.Fatal(err)
	}
	if l, ok := a.Link("hostB"); ok {
		l.SetRateMbps(20)
	}
	fw, err := wren.DialRepository(repoAddr, "hostA", 64)
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()
	a.SetWrenBatchFeed(fw.FeedAll)

	// Application traffic: bursts of frames from A to a VM on B.
	dst := ethernet.VMMAC(2)
	b.AttachVM(dst, func(*ethernet.Frame) {})
	a.AddRule(dst, "hostB")
	done := time.After(3 * time.Second)
	tick := time.Tick(50 * time.Millisecond)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-tick:
			for i := 0; i < 40; i++ { // ~60 KB burst
				a.InjectFrame(&ethernet.Frame{
					Dst: dst, Src: ethernet.VMMAC(1),
					Type: ethernet.TypeApp, Payload: make([]byte, 1400),
				})
			}
		}
	}
	fw.Flush()
	time.Sleep(100 * time.Millisecond)
	obs := repo.PollAll()

	sent, filtered := fw.Stats()
	batches, records := repo.Received()
	fmt.Printf("forwarder: %d records shipped, %d filtered out locally\n", sent, filtered)
	fmt.Printf("repository: %d batches / %d records received, %d observations\n",
		batches, records, obs)
	for _, po := range repo.Scan() {
		if po.Estimate.Count > 0 {
			fmt.Printf("  %s -> %s: %.1f Mbit/s (%s, true link 20.0)\n",
				po.Origin, po.Remote, po.Estimate.Mbps, po.Estimate.Kind)
		}
	}
}
