//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

// childUsage returns an exited child's CPU seconds (user+system) and peak
// resident set size in MB.
func childUsage(st *os.ProcessState) (cpuS, peakRSSMB float64) {
	ru, ok := st.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpuS = st.UserTime().Seconds() + st.SystemTime().Seconds()
	rss := float64(ru.Maxrss) // kilobytes, except on darwin where it is bytes
	if runtime.GOOS == "darwin" {
		rss /= 1024
	}
	return cpuS, rss / 1024
}

// selfCPU returns this process's CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
