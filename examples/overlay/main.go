// Overlay: the full closed loop on real sockets. A star overlay of VNET
// daemons runs on localhost; two chatty VMs start on unlucky hosts (one on
// a host whose physical path is rate-limited to 4 Mbit/s); Wren measures
// the paths from the VMs' own traffic, VTTIF infers the traffic matrix,
// and VADAPT migrates the VM off the slow host.
//
//	go run ./examples/overlay
package main

import (
	"fmt"
	"log"
	"time"

	"freemeasure/internal/core"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren/coord"
)

func main() {
	sys, err := core.NewSystem(core.Config{
		Hosts:       []string{"fast1", "fast2", "slowhost"},
		ReportEvery: 100 * time.Millisecond,
		VTTIF:       vttif.Config{Alpha: 0.6, HoldUpdates: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Emulate physical path capacities with token buckets on the links.
	limit := func(host string, mbps float64) {
		if l, ok := sys.Overlay().Node(host).Daemon.Link("proxy"); ok {
			l.SetRateMbps(mbps)
		}
		if l, ok := sys.Overlay().Proxy.Daemon.Link(host); ok {
			l.SetRateMbps(mbps)
		}
	}
	limit("fast1", 80)
	limit("fast2", 80)
	limit("slowhost", 4)

	v1, _ := sys.AddVM(1, "fast1")
	v2, _ := sys.AddVM(2, "slowhost") // unlucky initial placement
	fmt.Println("VM1 on fast1, VM2 on slowhost (4 Mbit/s path); starting chatty traffic...")

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			v1.Send(v2, 60<<10)
			v2.Send(v1, 60<<10)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Let Wren and VTTIF observe until both active legs are measured. The
	// first trains through a loaded link can underestimate it, so wait for
	// the fast leg to read as fast in both directions (or 15 s).
	fmt.Println("measuring passively...")
	measured := func(a, b string) float64 {
		if p, ok := sys.Overlay().View.Store.Get(coord.Path{From: a, To: b}); ok && p.Mbps > 0 {
			return p.Mbps
		}
		return 0
	}
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		if slow := measured("slowhost", "proxy"); slow > 0 && slow < 40 &&
			measured("fast1", "proxy") > 20 && measured("proxy", "fast1") > 20 {
			break
		}
	}
	for _, pair := range [][2]string{{"fast1", "proxy"}, {"slowhost", "proxy"}} {
		if p, ok := sys.Overlay().View.Store.Get(coord.Path{From: pair[0], To: pair[1]}); ok && p.Mbps > 0 {
			fmt.Printf("wren: %s -> %s  %.1f Mbit/s (%s)\n", pair[0], pair[1], p.Mbps, p.Kind)
		}
	}

	// One turn of the loop: sense the Proxy's views, let VADAPT decide,
	// apply the plan transactionally.
	res := sys.Controller().RunCycle()
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	if !res.Applied {
		log.Fatalf("no adaptation: %s", res.Reason)
	}
	fmt.Printf("\nVADAPT cycle %d: objective score %.2f -> %.2f, %d step(s) applied\n",
		res.Cycle, res.Current.Score, res.Target.Score, res.Result.Applied)
	for _, st := range res.Result.Steps {
		fmt.Printf("  %s: %s\n", st.Outcome, st.Desc)
	}
	fmt.Printf("\nafter adaptation: VM2 is now on %q\n", v2.Daemon().Name())

	before := v1.RxBytes()
	time.Sleep(2 * time.Second)
	mbps := float64(v1.RxBytes()-before) * 8 / 2 / 1e6
	fmt.Printf("VM1 now receives %.1f Mbit/s (was capped near 4 before the migration)\n", mbps)
}
