//go:build !linux

package bench

import (
	"syscall"
	"time"
)

// cpuNow returns the process's consumed CPU time (user + system).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUNow has no portable source; the wall clock stands in for it.
func threadCPUNow() time.Duration { return time.Duration(nowNs()) }
