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

	"freemeasure/internal/control"
	"freemeasure/internal/ethernet"
	"freemeasure/internal/vm"
	"freemeasure/internal/vnet"
	"freemeasure/internal/vttif"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// overlayWren is every daemon's Wren configuration. Wall-clock overlay
// traffic is sparser and noisier than simulated kernel traces: merge
// sub-millisecond write jitter into bursts and close trains after 20 ms of
// idleness.
var overlayWren = wren.Config{Scan: wren.ScanConfig{BurstGap: 1_000_000, MaxGap: 20_000_000}}

func main() {
	hosts := []string{"fast1", "fast2", "slowhost"}
	o, err := vnet.NewStar(hosts, vttif.Config{Alpha: 0.6, HoldUpdates: 1}, overlayWren)
	if err != nil {
		log.Fatal(err)
	}
	defer o.Close()

	// The adaptation loop: sense the Proxy's global view, let VADAPT
	// decide, apply the plan to the overlay. A migration re-attaches the
	// VM to the target host's daemon; swapped endpoints undo it.
	var vms []*vm.VM
	ctl, err := control.New(control.Config{
		Source: &control.ViewSource{
			View:  o.View,
			Hosts: func() []string { return hosts },
			VMs: func() []control.VMInfo {
				out := make([]control.VMInfo, len(vms))
				for i, v := range vms {
					out[i] = control.VMInfo{MAC: v.MAC(), Host: v.Daemon().Name()}
				}
				return out
			},
		},
		Applier: control.OverlayApplier{Overlay: o, Migrator: vnet.MigratorFunc(func(mac ethernet.MAC, _, to string) error {
			for _, v := range vms {
				if v.MAC() == mac {
					v.AttachTo(o.Node(to).Daemon)
					return nil
				}
			}
			return fmt.Errorf("no vm with MAC %s", mac)
		})},
	})
	if err != nil {
		log.Fatal(err)
	}
	o.StartReporting(100 * time.Millisecond)

	// Emulate physical path capacities with token buckets on the links.
	limit := func(host string, mbps float64) {
		if l, ok := o.Node(host).Daemon.Link("proxy"); ok {
			l.SetRateMbps(mbps)
		}
		if l, ok := o.Proxy.Daemon.Link(host); ok {
			l.SetRateMbps(mbps)
		}
	}
	limit("fast1", 80)
	limit("fast2", 80)
	limit("slowhost", 4)

	v1, v2 := vm.New(1), vm.New(2)
	v1.AttachTo(o.Node("fast1").Daemon)
	v2.AttachTo(o.Node("slowhost").Daemon) // unlucky initial placement
	vms = []*vm.VM{v1, v2}
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
		if p, ok := o.View.Store.Get(coord.Path{From: a, To: b}); ok && p.Mbps > 0 {
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
		if p, ok := o.View.Store.Get(coord.Path{From: pair[0], To: pair[1]}); ok && p.Mbps > 0 {
			fmt.Printf("wren: %s -> %s  %.1f Mbit/s (%s)\n", pair[0], pair[1], p.Mbps, p.Kind)
		}
	}

	// One turn of the loop: sense the Proxy's views, let VADAPT decide,
	// apply the plan transactionally.
	res := ctl.RunCycle()
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
