package bench

import (
	"syscall"
	"time"
	"unsafe"
)

// CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID from <time.h>.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// cpuNow returns the process's consumed CPU time (user + system) at
// nanosecond resolution; getrusage would round every reading to 1 µs,
// which shows in a per-op median of ~2 ms.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTimeID) }

// threadCPUNow returns the CPU time the calling OS thread has consumed:
// unlike the wall clock it does not run while the thread waits for a CPU.
// Only differences taken on one locked thread mean anything.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTimeID) }

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
