package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID. The kernel charges
// a thread only for the time it ran on a CPU: with paravirtual steal
// accounting (the default on KVM guests) time the hypervisor steals
// from the vCPU is not charged, and neither is time spent waiting for a
// CPU.
const clockThreadCPU = 3

// threadCPU is the CPU time the calling OS thread has used, 0 when the
// kernel refuses; callers pin their goroutine with runtime.LockOSThread
// around a reading pair.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
