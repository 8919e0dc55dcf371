package vm

import (
	"sync/atomic"
	"time"
)

// This file provides the application traffic patterns the paper runs
// inside VMs: the BSP-style neighbor pattern of Figure 4 and the NAS
// MultiGrid matrix of Figure 7.

// Pattern drives a set of VMs with a periodic communication step until
// stopped.
type Pattern struct {
	stop  atomic.Bool
	done  chan struct{}
	Steps atomic.Uint64 // completed iterations
}

// Stop halts the pattern after the current step and waits for it.
func (p *Pattern) Stop() {
	p.stop.Store(true)
	<-p.done
}

// run executes step every interval until stopped.
func startPattern(interval time.Duration, step func()) *Pattern {
	p := &Pattern{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for !p.stop.Load() {
			step()
			p.Steps.Add(1)
			<-ticker.C
		}
	}()
	return p
}

// StartBSPNeighbors runs the Figure 4 workload: each step, every VM sends
// msgSize bytes to its left and right neighbors in a ring ("a simple
// BSP-style communication pattern generator ... sending 200K messages").
func StartBSPNeighbors(vms []*VM, msgSize int, interval time.Duration) *Pattern {
	n := len(vms)
	return startPattern(interval, func() {
		for i, v := range vms {
			v.Send(vms[(i+1)%n], msgSize)
			v.Send(vms[(i+n-1)%n], msgSize)
		}
	})
}

// NASMultiGridIntensity is the relative traffic intensity matrix VTTIF
// inferred from the 4-VM NAS MultiGrid benchmark (paper Figure 7): an
// all-to-all pattern with strongly asymmetric loads — neighbor pairs
// (1,2), (2,3), (3,4), (4,1) exchange the bulk of the data while the
// diagonals carry light control traffic.
var NASMultiGridIntensity = [4][4]float64{
	{0.0, 1.0, 0.2, 0.8},
	{0.8, 0.0, 1.0, 0.2},
	{0.2, 0.8, 0.0, 1.0},
	{1.0, 0.2, 0.8, 0.0},
}

// StartNASMultiGrid runs a 4-VM traffic pattern proportional to
// NASMultiGridIntensity: per step, VM i sends intensity*unitBytes to VM j.
func StartNASMultiGrid(vms []*VM, unitBytes int, interval time.Duration) *Pattern {
	if len(vms) != 4 {
		panic("vm: NAS MultiGrid pattern needs exactly 4 VMs")
	}
	return startPattern(interval, func() {
		for i, v := range vms {
			for j, u := range vms {
				size := int(NASMultiGridIntensity[i][j] * float64(unitBytes))
				if size > 0 {
					v.Send(u, size)
				}
			}
		}
	})
}
