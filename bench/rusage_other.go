//go:build !unix

package main

import "os"

// childUsage reports CPU time only: peak RSS needs getrusage.
func childUsage(st *os.ProcessState) (cpuS, peakRSSMB float64) {
	return st.UserTime().Seconds() + st.SystemTime().Seconds(), 0
}

func selfCPU() float64 { return 0 }
