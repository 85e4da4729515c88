package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"time"

	safe "repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/shard"
)

// Every measured fit runs in a fresh child process: that is how cmd/safe is
// used, it keeps one fit's garbage out of the next one's GC pacing, and it
// yields peak RSS and CPU time per fit. The parent re-executes its own
// binary with childEnv set and the job as JSON; the child answers with one
// JSON object on stdout.

const childEnv = "SAFE_BENCH_CHILD"

// fitMode selects what the child wraps around the fit.
type fitMode string

const (
	// modePlain calls the public safe.Fit and nothing else: the only mode
	// whose timing feeds an end-to-end metric.
	modePlain fitMode = "plain"
	// modeTraced subscribes to events and decorates the source, the
	// executor and the connections.
	modeTraced fitMode = "traced"
	// modeHeap forces a GC at every stage end and samples the live heap;
	// its timing is discarded.
	modeHeap fitMode = "heap"
)

type fitJob struct {
	W     workload
	Files fitFiles
	Mode  fitMode
	Procs int // GOMAXPROCS of the child
	Fit   int // fit id stamped on spans
}

type fitResult struct {
	WallS       float64
	AllocBytes  uint64
	Mallocs     uint64
	GCCycles    uint32
	Fingerprint string
	Selected    int
	FiniteOK    bool // the held-out transform produced only finite values
	Shard       *shard.Stats

	Spans         []span
	Counters      map[string]float64
	HeapPeakMB    float64
	HeapPeakStage string

	// Filled by the parent: from the child's exit status, and the machine's
	// speed while the child ran (calib.go).
	Speed     float64
	ProcWallS float64
	CPUS      float64
	PeakRSSMB float64
}

// childMain runs one fit job and exits. It never returns.
func childMain(jobJSON string) {
	// The parent holds our stdin open for as long as it lives: EOF means it
	// died (or was killed), and an orphaned fit must not keep running.
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(3)
	}()
	var job fitJob
	if err := json.Unmarshal([]byte(jobJSON), &job); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad job:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(job.Procs)
	res, err := runFitJob(context.Background(), job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runFitJob prepares what the engine needs outside the timed region (the
// resident frame for the in-memory engine, the worker server for the
// distributed one), times the fit, and checks its output.
func runFitJob(ctx context.Context, job fitJob) (*fitResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w := job.W
	res := &fitResult{}
	var rec *recorder
	opts := w.fitOptions()
	switch job.Mode {
	case modeTraced:
		rec = newRecorder(job.Fit)
		opts = append(opts, safe.WithEvents(rec.onEvent))
	case modeHeap:
		opts = append(opts, safe.WithEvents(func(ev core.FitEvent) {
			if ev.Kind != core.EventStageEnd {
				return
			}
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if mb := float64(ms.HeapAlloc) / (1 << 20); mb > res.HeapPeakMB {
				res.HeapPeakMB, res.HeapPeakStage = mb, ev.Stage.String()
			}
		}))
	}

	var fit func() (*safe.Result, error)
	switch w.Eng {
	case engineMem:
		train, err := colstore.ReadFrame(job.Files.Train)
		if err != nil {
			return nil, err
		}
		fit = func() (*safe.Result, error) { return safe.Fit(ctx, safe.FromFrame(train), opts...) }
	case engineShard:
		if rec == nil {
			src := safe.FromColumnFile(job.Files.Train)
			if w.CSV {
				src = safe.FromCSVFile(job.Files.Train, "label")
				opts = append(opts, safe.WithSharding(w.chunkRows()))
			}
			fit = func() (*safe.Result, error) { return safe.Fit(ctx, src, opts...) }
		} else {
			fit = func() (*safe.Result, error) {
				src, closeSrc, err := openChunks(w, job.Files.Train)
				if err != nil {
					return nil, err
				}
				defer closeSrc() //nolint:errcheck // read-only source teardown
				return safe.Fit(ctx, safe.FromChunks(traceSource(src, rec)), opts...)
			}
		}
	case engineDist:
		srv, err := dist.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(ctx)
		}()
		defer func() {
			cancel()
			<-served
		}()
		if rec == nil {
			opts = append(opts, safe.WithDistributed(srv.Addr(), srv.Addr()))
			fit = func() (*safe.Result, error) { return safe.Fit(ctx, safe.FromColumnFile(job.Files.Train), opts...) }
		} else {
			fit = func() (*safe.Result, error) { return tracedDistFit(ctx, w, job.Files.Train, srv.Addr(), rec) }
		}
	default:
		return nil, fmt.Errorf("workload %s has no fit engine", w.Name)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if rec != nil {
		rec.begin("safe.fit")
	}
	start := time.Now()
	out, err := fit()
	res.WallS = time.Since(start).Seconds()
	if rec != nil {
		rec.end()
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
	res.GCCycles = after.NumGC - before.NumGC
	res.Fingerprint = fingerprint(out.Pipeline)
	res.Selected = out.Pipeline.NumFeatures()
	res.Shard = out.Shard
	if rec != nil {
		res.Spans, res.Counters = rec.spans, rec.counters
	}

	test, err := colstore.ReadFrame(job.Files.Test)
	if err != nil {
		return nil, err
	}
	tr, err := out.Pipeline.Transform(test)
	if err != nil {
		return nil, fmt.Errorf("held-out transform: %w", err)
	}
	res.FiniteOK = allFinite(tr)
	return res, nil
}

// openChunks opens the workload's file the way the public Source would.
func openChunks(w workload, path string) (frame.ChunkSource, func() error, error) {
	if w.CSV {
		src, err := frame.OpenCSVChunks(path, "label", w.chunkRows())
		if err != nil {
			return nil, nil, err
		}
		return src, src.Close, nil
	}
	src, err := colstore.OpenSource(path)
	if err != nil {
		return nil, nil, err
	}
	return src, src.Close, nil
}

// tracedDistFit assembles what safe.WithDistributed assembles — dial, framed
// connections, coordinator, sharded fit loop with the coordinator as its
// executor — with a decorator at each seam, because WithDistributed dials
// its own connections and offers none.
func tracedDistFit(ctx context.Context, w workload, path, addr string, rec *recorder) (*safe.Result, error) {
	var conns []dist.Conn
	for i := 0; i < 2; i++ {
		nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, err
		}
		conns = append(conns, &tracedConn{conn: dist.NewConn(nc), rec: rec})
	}
	coord := dist.NewCoordinator(dist.SourceSpec{Kind: dist.SourceColstore, Path: path}, conns...)
	defer coord.Close()
	src, closeSrc, err := openChunks(w, path)
	if err != nil {
		return nil, err
	}
	defer closeSrc() //nolint:errcheck // read-only source teardown
	cfg := w.coreConfig()
	cfg.Events = rec.onEvent
	p, report, stats, err := shard.Fit(ctx, src, shard.Config{Core: cfg, Exec: &tracedExecutor{exec: coord, rec: rec}})
	if err != nil {
		return nil, err
	}
	return &safe.Result{Pipeline: p, Report: report, Shard: stats}, nil
}

func allFinite(f *frame.Frame) bool {
	for _, c := range f.Columns {
		for _, v := range c.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return f.NumCols() > 0
}

// spawnFit runs one fit job in a child process and returns its result with
// the process's wall time, CPU time and peak RSS filled in. The child is
// killed when ctx is cancelled and exits by itself if this process dies.
func spawnFit(ctx context.Context, job fitJob) (*fitResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	jobJSON, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(jobJSON))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe() // held open, never written: see childMain
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	start := time.Now()
	out, err := cmd.Output()
	wall := time.Since(start).Seconds()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("fit child: %w", err)
	}
	var res fitResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("fit child output: %w", err)
	}
	res.ProcWallS = wall
	res.CPUS, res.PeakRSSMB = childUsage(cmd.ProcessState)
	return &res, nil
}
