package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of this process to the lowest CPU it
// may run on; threads and child processes started later inherit the
// binding. On a virtual machine whose vCPUs share a host with other
// guests, work handed between threads or processes on different vCPUs
// waits each time for an idle vCPU to be woken, and the host counts much
// of that wait as stolen: serve's closed loop spread over two vCPUs ran
// at 30–40% steal and about half the throughput it reached bound to one
// vCPU, at 1–7% steal. On one CPU the handoffs are plain context
// switches, so the figures read the program's work.
func pinToOneCPU() error {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var one cpuMask
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	// A thread the runtime starts while the list is read inherits the
	// mask of the thread that started it, which may not be set yet, so
	// repeat until a pass finds no thread left to bind.
	done := map[int]bool{}
	for {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
