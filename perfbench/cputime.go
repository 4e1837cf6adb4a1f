package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Engine throughput and set-up are timed in CPU time, cluster-sweep in
// wall time less steal, and both are then calibrated for the speed of the
// core (hostspeed.go). On a VM, the hypervisor gives a busy vCPU to other
// guests for a share of the time (steal), which on the reference host
// reaches a third in some periods; wall-clock rates swing with it, while
// CPU time and wall time less steal do not, and no change to the code can
// move steal.

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time of the calling OS thread (lock the goroutine
// to its thread first).
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU is the CPU time of the whole process: every thread, the
// runtime's included.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// sum over every state, and steal alone, in clock ticks.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
