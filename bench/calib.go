package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Every wall-clock end-to-end metric is corrected for the speed of the
// machine at the moment it was measured. The benchmark runs on a few cores
// of a shared host whose speed shifts by a quarter for minutes at a time (a
// neighbour on the sibling hyperthread, a frequency step): the CPU time of
// an identical fit rises and falls with its wall time, so no statistic over
// one run's operations removes the shift. What does is a reference kernel —
// benchmark-owned code that no change to the program touches — timed right
// before and right after every measured operation: the operation's time is
// multiplied by nominal ÷ measured kernel time. A change that makes the
// program 10% faster still reads 10% faster; the host's mood reads far less
// (README.md, "Speed correction", has the measurements).

// calibWork is one goroutine's share of the reference kernel: benchmark-owned
// code that never changes with the program, mixing the three things a fit's
// inner loops do — sort a column, stream arithmetic over columns, and gather
// into a histogram.
type calibWork struct {
	src, buf, acc []float64
	hist          []float64
	idx           []uint16
}

const (
	calibRows = 1 << 12
	calibBins = 256
)

func newCalibWork() *calibWork {
	c := &calibWork{
		src:  make([]float64, calibRows),
		buf:  make([]float64, calibRows),
		acc:  make([]float64, calibRows),
		hist: make([]float64, calibBins),
		idx:  make([]uint16, calibRows),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.src[i] = float64(x>>11) / (1 << 53)
		c.idx[i] = uint16(x>>40) % calibBins
	}
	return c
}

// run does the fixed work once and returns a value that depends on all of it.
func (c *calibWork) run() float64 {
	copy(c.buf, c.src)
	sort.Float64s(c.buf)
	for rep := 0; rep < 8; rep++ {
		for i, v := range c.src {
			c.acc[i] = c.acc[i]*0.5 + v*c.buf[i] + v/(1+c.buf[i])
		}
	}
	for rep := 0; rep < 8; rep++ {
		for i, b := range c.idx {
			c.hist[b] += c.acc[i]
		}
	}
	s := 0.0
	for _, h := range c.hist {
		s += h
	}
	return s
}

// calibrator times the reference kernel the way the program spends a fit's
// time: a serial stretch on the calling goroutine, then units handed out one
// at a time to procs goroutines (the program's parallel-for hands out chunks
// the same way), so a core that is stalled or shared takes fewer units
// instead of holding up the reading — as it would the fit.
type calibrator struct {
	works            []*calibWork
	serial, parallel int // units per reading
}

func newCalibrator(procs int) *calibrator {
	c := &calibrator{serial: calibSerialUnits, parallel: calibParallelUnits * procs}
	for i := 0; i < procs; i++ {
		c.works = append(c.works, newCalibWork())
	}
	return c
}

// measure returns the wall seconds of one reading.
func (c *calibrator) measure() float64 {
	var wg sync.WaitGroup
	var next atomic.Int64
	sink := make([]float64, len(c.works))
	start := time.Now()
	for u := 0; u < c.serial; u++ {
		sink[0] += c.works[0].run()
	}
	for i, w := range c.works {
		wg.Add(1)
		go func(i int, w *calibWork) {
			defer wg.Done()
			for next.Add(1) <= int64(c.parallel) {
				sink[i] += w.run()
			}
		}(i, w)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	for _, s := range sink {
		if math.IsNaN(s) {
			panic("calibration kernel produced NaN")
		}
	}
	return d
}

const (
	// One unit is about 0.4 ms here. 40 serial units and 80 per core in
	// parallel make a reading of about 50 ms — long enough to average over
	// scheduler ticks, short against any measured operation — a third of it
	// serial, which is about the fits' own share (proc.cpu_util).
	calibSerialUnits   = 40
	calibParallelUnits = 80
	// calibNominalS is the kernel's time on the machine the corrected numbers
	// are quoted for: about the median of the box the benchmark was written on
	// (2 vCPUs of a Xeon @ 2.1 GHz), which has read from 0.65 to 1.32 of it.
	calibNominalS = 0.050
	// calibFresh is how old the reading that closed one operation may be when
	// it opens the next.
	calibFresh = 20 * time.Millisecond
)

// speedGauge reads the machine's speed around measured operations. Speed is
// nominal ÷ measured kernel time: 1 on the nominal machine, 0.8 when this
// one runs a fifth slower.
type speedGauge struct {
	cal    *calibrator
	last   float64 // kernel seconds of the latest reading
	lastAt time.Time
	speeds []float64 // one per operation
}

func newSpeedGauge(procs int) *speedGauge {
	return &speedGauge{cal: newCalibrator(procs)}
}

func (g *speedGauge) read() float64 {
	g.last = g.cal.measure()
	g.lastAt = time.Now()
	return g.last
}

// around runs op between two readings of the kernel and returns the speed of
// the machine while it ran, from the mean of the two. The closing reading
// opens the next operation if that starts at once.
func (g *speedGauge) around(op func()) float64 {
	before := g.last
	if g.lastAt.IsZero() || time.Since(g.lastAt) > calibFresh {
		before = g.read()
	}
	op()
	after := g.read()
	speed := calibNominalS / ((before + after) / 2)
	g.speeds = append(g.speeds, speed)
	return speed
}

// note summarises the speeds seen, for the run's notes.
func (g *speedGauge) note() (med, lo, hi float64) {
	return median(g.speeds), quantile(g.speeds, 0), quantile(g.speeds, 1)
}
