package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runOptions is one invocation of the benchmark.
type runOptions struct {
	W       workload
	Seed    int64
	Seconds float64
	Trace   bool
	// Quick is the smoke-test shape: 2k rows, one set-up, one fit per kind,
	// 1 s serve phases.
	Quick bool
	// Procs is the GOMAXPROCS of this process and of every fit child.
	Procs int
	// Scratch is the directory run directories are created under.
	Scratch string
}

// outcome is what a run reports.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
	// Notes are printed above the result line: the fingerprint, counts and
	// whatever explains a failed operation.
	Notes []string
}

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// A run sets up at least setupRepeats times, and goes on while set-ups are
// cheap — until setupBudgetS have gone or setupMax are done — because a 50 ms
// set-up is as short as the speed readings around it and needs more samples
// for a steady median. setup_s is the median of the speed-corrected times.
const (
	setupRepeats = 3
	setupMax     = 25
	setupBudgetS = 2.0
)

// minFits is the fewest fits a measured phase runs whatever -seconds says:
// a single fit's wall varies by ±10% on a small box, so the median of fewer
// is not a measurement.
const minFits = 5

// repeatSetup runs setup as often as the constants above say (once when quick
// or traced: neither reports setup_s), each time in its own directory under
// dir, and returns the last result and the median speed-corrected time. Every
// result but the last is handed to release (when non-nil) and its directory
// removed.
func repeatSetup[T any](o runOptions, g *speedGauge, dir string, setup func(sub string) (T, error), release func(T)) (T, float64, error) {
	once := o.Quick || o.Trace
	var last T
	var lastDir string
	var times []float64
	begin := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			if once || i >= setupMax || i >= setupRepeats && time.Since(begin).Seconds() > setupBudgetS {
				break
			}
			if release != nil {
				release(last)
			}
			os.RemoveAll(lastDir)
		}
		lastDir = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(lastDir, 0o755); err != nil {
			return last, 0, err
		}
		var err error
		var took float64
		speed := g.around(func() {
			start := time.Now()
			last, err = setup(lastDir)
			took = time.Since(start).Seconds()
		})
		if err != nil {
			return last, 0, err
		}
		times = append(times, took*speed)
	}
	return last, median(times), nil
}

// fitChecker applies the output checks to every fit of a run.
type fitChecker struct {
	want string // reference fingerprint; set by the first fit when empty
	out  *outcome
}

// check counts the fit and reports whether its output was right: the
// reference fingerprint reproduced, at least one feature selected, and
// finite values on held-out rows.
func (c *fitChecker) check(label string, res *fitResult, err error) bool {
	c.out.Attempted++
	switch {
	case err != nil:
		c.out.notef("%s: %v", label, err)
	case c.want != "" && res.Fingerprint != c.want:
		c.out.notef("%s: fingerprint %s, want %s", label, res.Fingerprint, c.want)
	case res.Selected < 1:
		c.out.notef("%s: no feature selected", label)
	case !res.FiniteOK:
		c.out.notef("%s: non-finite value on held-out rows", label)
	default:
		if c.want == "" {
			c.want = res.Fingerprint
		}
		return true
	}
	c.out.Failed++
	return false
}

// fit runs one child fit and checks it; it returns nil when the fit failed
// its checks, and an error only when ctx was cancelled.
func (c *fitChecker) fit(ctx context.Context, label string, job fitJob) (*fitResult, error) {
	res, err := spawnFit(ctx, job)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if !c.check(label, res, err) {
		return nil, nil
	}
	return res, nil
}

// plainFits runs untraced child fits until the phase has lasted seconds (at
// least minFits; exactly n when n > 0) and returns the ones that passed, each
// stamped with the machine's speed while it ran.
func plainFits(ctx context.Context, job fitJob, chk *fitChecker, g *speedGauge, seconds float64, n int) ([]*fitResult, error) {
	var ok []*fitResult
	var walls []float64
	start := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		// Stop when the next fit would end further past the mark than
		// stopping now falls short of it — or, on a machine so slow that
		// minFits fits take several times the phase, once three are in: the
		// driver allows a run 180 s in all.
		elapsed := time.Since(start).Seconds()
		if n <= 0 && (i >= minFits && elapsed+median(walls)/2 > seconds || i >= 3 && elapsed > 4*seconds) {
			break
		}
		var res *fitResult
		var err error
		speed := g.around(func() { res, err = chk.fit(ctx, fmt.Sprintf("fit %d", i+1), job) })
		if err != nil {
			return nil, err
		}
		if res != nil {
			res.Speed = speed
			ok = append(ok, res)
			walls = append(walls, res.ProcWallS)
		} else if len(ok) == 0 && i >= 2 {
			return nil, fmt.Errorf("the first %d fits all failed: %v", i+1, chk.out.Notes)
		}
	}
	return ok, nil
}

func pick(rs []*fitResult, f func(*fitResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func medianOf(rs []*fitResult, f func(*fitResult) float64) float64 { return median(pick(rs, f)) }

// The fields of a fit result the metrics are medians of. The end-to-end
// metrics take the speed-corrected times; the traced run's layer numbers are
// raw, with host.speed beside them.
func wallS(r *fitResult) float64          { return r.WallS }
func procWallS(r *fitResult) float64      { return r.ProcWallS }
func cpuS(r *fitResult) float64           { return r.CPUS }
func correctedWallS(r *fitResult) float64 { return r.WallS * r.Speed }
func correctedProcS(r *fitResult) float64 { return r.ProcWallS * r.Speed }

// runFit measures a fit workload with tracing off: the end-to-end metrics.
func runFit(ctx context.Context, o runOptions, dir string) (*outcome, error) {
	w := o.W
	out := &outcome{Values: map[string]float64{}}
	g := newSpeedGauge(o.Procs)
	setup, setupS, err := repeatSetup(o, g, dir, func(sub string) (*fitSetup, error) {
		return setupFit(ctx, w, o.Seed, sub)
	}, nil)
	if err != nil {
		return nil, err
	}
	chk := &fitChecker{want: setup.WantFP, out: out}
	job := fitJob{W: w, Files: setup.Files, Mode: modePlain, Procs: o.Procs}
	n := 0
	if o.Quick {
		n = 1
	}
	fits, err := plainFits(ctx, job, chk, g, o.Seconds, n)
	if err != nil {
		return nil, err
	}
	if len(fits) == 0 {
		return nil, fmt.Errorf("no fit passed its checks: %v", out.Notes)
	}
	rows := float64(w.Rows)
	out.Values["setup_s"] = setupS
	out.Values["rows_per_s"] = rows * float64(w.Iters) / medianOf(fits, correctedWallS)
	out.Values["latency_p50_ms"] = 1e3 * medianOf(fits, correctedProcS)
	out.Values["alloc_kb_per_row"] = medianOf(fits, func(r *fitResult) float64 { return float64(r.AllocBytes) }) / 1024 / rows
	walls := pick(fits, wallS)
	out.notef("fits=%d fingerprint=%s selected=%d", len(fits), chk.want, fits[0].Selected)
	out.notef("raw fit wall s: min %.3f, quartiles %.3f %.3f %.3f, max %.3f; median cpu %.3f s",
		quantile(walls, 0), quantile(walls, 0.25), median(walls), quantile(walls, 0.75), quantile(walls, 1),
		medianOf(fits, cpuS))
	med, lo, hi := g.note()
	out.notef("host speed (1 = nominal): median %.3f, range %.3f to %.3f; uncorrected rows_per_s %.0f",
		med, lo, hi, rows*float64(w.Iters)/median(walls))
	return out, nil
}

// runFitTraced is the traced run of a fit workload: three untraced fits (the
// process counters and the tracing-overhead baseline) alternating with three
// traced ones, one heap-sampling fit, one single-core fit, and the kernel
// probes.
func runFitTraced(ctx context.Context, o runOptions, dir string) (*outcome, error) {
	w := o.W
	out := &outcome{Values: map[string]float64{}}
	m := out.Values
	setup, err := setupFit(ctx, w, o.Seed, dir)
	if err != nil {
		return nil, err
	}
	m["colstore.write_mb_per_s"] = setup.WriteMBps
	chk := &fitChecker{want: setup.WantFP, out: out}
	job := fitJob{W: w, Files: setup.Files, Mode: modePlain, Procs: o.Procs}
	n := 3
	if o.Quick {
		n = 1
	}
	// Untraced and traced fits alternate, so a machine that speeds up or
	// slows down during the run moves both medians alike. The traced fit
	// must be the same fit — same selection, same passes, same rows streamed
	// — or the decorators pushed the engine onto another path and the layer
	// numbers describe something else. Layer metrics and the span file come
	// from the first traced fit.
	// The layer numbers are raw; host.speed, read around the untraced fits,
	// says what machine they were taken on.
	g := newSpeedGauge(o.Procs)
	var plain, traced []*fitResult
	for i := 1; i <= n; i++ {
		job.Mode, job.Fit = modePlain, 0
		var p *fitResult
		var err error
		g.around(func() { p, err = chk.fit(ctx, fmt.Sprintf("fit %d", i), job) })
		if err != nil {
			return nil, err
		}
		if p != nil {
			plain = append(plain, p)
		}
		job.Mode, job.Fit = modeTraced, i
		t, err := chk.fit(ctx, fmt.Sprintf("traced fit %d", i), job)
		if err != nil {
			return nil, err
		}
		if t != nil {
			traced = append(traced, t)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no pair of untraced and traced fits passed its checks: %v", out.Notes)
	}
	if a, b := traced[0].Shard, plain[0].Shard; a != nil && b != nil && (a.Passes != b.Passes || a.RowsStreamed != b.RowsStreamed) {
		out.Failed++
		out.notef("traced fit streamed %d passes / %d rows, untraced %d / %d", a.Passes, a.RowsStreamed, b.Passes, b.RowsStreamed)
	}
	tracedMetrics(traced[0], m)
	if err := writeSpans(filepath.Join(o.Scratch, "trace-"+w.Name+".jsonl"), traced[0].Spans); err != nil {
		return nil, err
	}
	wall := medianOf(plain, wallS)
	cpu := medianOf(plain, cpuS)
	m["host.speed"] = median(g.speeds)
	m["trace.overhead_frac"] = (medianOf(traced, wallS) - wall) / wall
	m["proc.peak_rss_mb"] = medianOf(plain, func(r *fitResult) float64 { return r.PeakRSSMB })
	m["proc.cpu_s"] = cpu
	m["proc.cpu_util"] = cpu / medianOf(plain, procWallS) / float64(o.Procs)
	m["proc.allocs"] = medianOf(plain, func(r *fitResult) float64 { return float64(r.Mallocs) })
	m["proc.gc_cycles"] = medianOf(plain, func(r *fitResult) float64 { return float64(r.GCCycles) })

	job.Mode = modeHeap
	heap, err := chk.fit(ctx, "heap-sampling fit", job)
	if err != nil {
		return nil, err
	}
	if heap != nil {
		m["mem.live_heap_peak_mb"] = heap.HeapPeakMB
		out.notef("live heap peaks at the end of stage %s", heap.HeapPeakStage)
	}

	job.Mode, job.Procs = modePlain, 1
	single, err := chk.fit(ctx, "single-core fit", job)
	if err != nil {
		return nil, err
	}
	if single != nil {
		m["par.speedup"] = single.WallS / wall
	}

	if w.Eng == engineDist {
		// The same file through the local sharded engine: the difference is
		// what the wire protocol costs.
		local := w
		local.Eng = engineShard
		job = fitJob{W: local, Files: setup.Files, Mode: modePlain, Procs: o.Procs}
		n := 2
		if o.Quick {
			n = 1
		}
		sharded, err := plainFits(ctx, job, chk, g, 0, n)
		if err != nil {
			return nil, err
		}
		if len(sharded) > 0 {
			sw := medianOf(sharded, wallS)
			m["dist.overhead_frac"] = (wall - sw) / sw
		}
	}

	if err := fitProbes(w, setup, m); err != nil {
		return nil, err
	}
	out.notef("fingerprint=%s", chk.want)
	return out, nil
}

// tracedMetrics derives the layer metrics of one traced fit from its
// counters, spans and shard statistics.
func tracedMetrics(r *fitResult, m map[string]float64) {
	for k, v := range r.Counters {
		m[k] = v
	}
	var stages float64
	self := selfTimes(r.Spans)
	for _, s := range r.Spans {
		switch {
		case strings.HasPrefix(s.Name, "core.stage."):
			stages += s.dur()
		case s.Name == preIteration:
			stages += s.dur()
			m["core.pre_iteration_s"] = s.dur()
		case strings.HasPrefix(s.Name, "dist.pass."):
			m["dist.wait_s"] += self[s.ID]
		}
	}
	m["core.stage_cover"] = stages / r.WallS
	if c := m["core.candidates"]; c > 0 {
		m["core.survivor_ratio"] = m["core.selected"] / c
	}
	if st := r.Shard; st != nil {
		m["shard.passes"] = float64(st.Passes)
		m["shard.rows_streamed"] = float64(st.RowsStreamed)
		m["shard.blocks_skipped"] = float64(st.BlocksSkipped)
		m["shard.retries"] = float64(st.Retries)
		m["shard.max_rank_error"] = float64(st.MaxQuantileRankError)
	}
}
