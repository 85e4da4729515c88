package safe_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/colstore"
)

// workload generates the benchmark-shaped synthetic dataset the perf
// harness fits (Interactions = Dim/3, dataset seed 11), per task family, so
// the equivalence tests pin the benchmarked distribution.
func workload(t *testing.T, rows, dim int, task safe.Task) *safe.Frame {
	t.Helper()
	target, classes := safe.TargetForTask(task)
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "fit-test", Train: rows, Test: 64, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
		Target: target, Classes: classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

func sameSelection(t *testing.T, label string, want, got *safe.Pipeline) {
	t.Helper()
	if strings.Join(want.Output, "|") != strings.Join(got.Output, "|") {
		t.Fatalf("%s selection diverged:\nwant: %v\n got: %v", label, want.Output, got.Output)
	}
}

// emptyTempDir points TMPDIR — where a named CSV's sharded fit spills — at
// an empty directory for the test and returns a check that it is empty again.
func emptyTempDir(t *testing.T) (empty func(*testing.T)) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return func(t *testing.T) {
		t.Helper()
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("temp directory still holds %s", e.Name())
		}
	}
}

// TestRegressionFitIgnoresTargetOffsetAndScale: the regression criteria
// tally a target coded on its own mean and spread, so a fit selects the same
// formulas when the target is shifted by 1e8 — which once turned the raw sums'
// Σy² − (Σy)²/n into noise and changed the selection — and, scaled by 2^600
// (once NaN in every criterion), the same features with the same criteria bit
// for bit.
func TestRegressionFitIgnoresTargetOffsetAndScale(t *testing.T) {
	train := workload(t, 3000, 10, safe.RegressionTask())
	fit := func(f func(y float64) float64) *safe.Result {
		t.Helper()
		moved := *train
		moved.Label = make([]float64, len(train.Label))
		for i, y := range train.Label {
			moved.Label[i] = f(y)
		}
		res, err := safe.Fit(context.Background(), safe.FromFrame(&moved), safe.WithSeed(2), safe.WithTask(safe.RegressionTask()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := fit(func(y float64) float64 { return y })
	shifted := fit(func(y float64) float64 { return y + 1e8 })
	if got, w := strings.Join(shifted.Pipeline.Formulas(), "|"), strings.Join(want.Pipeline.Formulas(), "|"); got != w {
		t.Errorf("target + 1e8 selected\n%s\nwant\n%s", got, w)
	}
	scaled := fit(func(y float64) float64 { return math.Ldexp(y, 600) })
	if got, w := fingerprint(scaled.Pipeline), fingerprint(want.Pipeline); got != w {
		t.Errorf("target · 2^600 selected\n%s\nwant\n%s", got, w)
	}
	for i, ir := range scaled.Report.Iterations {
		w := want.Report.Iterations[i]
		if math.Float64bits(ir.BestGainRatio) != math.Float64bits(w.BestGainRatio) || ir.AfterIV != w.AfterIV {
			t.Errorf("target · 2^600, round %d: best gain ratio %v and %d IV survivors, want %v and %d",
				i+1, ir.BestGainRatio, ir.AfterIV, w.BestGainRatio, w.AfterIV)
		}
	}
}

// TestPlanValidation pins the option/source conflict surface.
func TestPlanValidation(t *testing.T) {
	train := workload(t, 500, 4, safe.BinaryTask())
	col := filepath.Join(t.TempDir(), "train.col")
	if err := colstore.WriteFrame(col, train, colstore.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	valid := safe.WithValidation(train)
	cases := []struct {
		name string
		src  safe.Source
		opts []safe.Option
		want string // in the error, when set
	}{
		{"nil source", nil, nil, ""},
		{"validation with sharding", safe.FromFrame(train), []safe.Option{valid, safe.WithSharding(100)}, "WithSharding selects"},
		{"validation with chunks", safe.FromChunks(safe.NewFrameChunks(train, 100)), []safe.Option{valid}, "FromChunks selects"},
		{"validation with a column file", safe.FromColumnFile(col), []safe.Option{valid}, "FromColumnFile selects"},
		{"validation with workers", safe.FromCSVFile("train.csv", "label"), []safe.Option{valid, safe.WithDistributed("127.0.0.1:1")}, "WithDistributed selects"},
		{"early stopping without validation", safe.FromFrame(train), []safe.Option{safe.WithEarlyStopping(2, 0.001)}, ""},
		{"zero iterations", safe.FromFrame(train), []safe.Option{safe.WithIterations(0)}, ""},
		{"empty operators", safe.FromFrame(train), []safe.Option{safe.WithOperators()}, ""},
		{"bad selection threshold", safe.FromFrame(train), []safe.Option{safe.WithSelection(0.1, 1.5)}, ""},
		{"nil frame", safe.FromFrame(nil), nil, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := safe.Fit(context.Background(), tc.src, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error naming %q", err, tc.want)
			}
		})
	}

	plan, err := safe.NewPlan(safe.FromFrame(train), safe.WithSharding(100))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Sharded() || plan.Engine() != "sharded" {
		t.Errorf("plan engine = %q, want sharded", plan.Engine())
	}
	plan, err = safe.NewPlan(safe.FromFrame(train))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sharded() || plan.Engine() != "in-memory" {
		t.Errorf("plan engine = %q, want in-memory", plan.Engine())
	}
	if plan.Config().Iterations != 1 {
		t.Errorf("normalised config iterations = %d", plan.Config().Iterations)
	}
}

// slowChunks delays every chunk read, so that the streaming passes before the
// first round take far longer than any timing slack.
type slowChunks struct {
	safe.ChunkSource
	delay time.Duration
}

func (c slowChunks) Next() (*safe.Chunk, error) {
	time.Sleep(c.delay)
	return c.ChunkSource.Next()
}

// otherFitColumns is what an in-memory binary fit of 8,000 × 30 rows
// allocates beyond its candidate columns, in columns of 8 bytes a row: the
// miner's and ranker's bin codes and histograms, the criterion scratches,
// the candidate records. It measured 72; the rest is headroom, less than
// the IV survivors' column count a second copy of them would add.
const otherFitColumns = 96

// TestInMemoryFitHoldsEachColumnOnce is the allocation guard of the
// in-memory engine: a fit holds each candidate column once — a chunk of
// generated columns in flight, every scored one back in the fit's arena, and
// each IV survivor rebuilt once into a buffer Pearson standardises in place
// and the ranker's binning reuses — so its bytes per row stay within
// max(streamChunk, IV survivors) + otherFitColumns float64 columns. Holding
// the survivors through generation, or standardising copies of them, adds
// about one column per survivor and fails it.
func TestInMemoryFitHoldsEachColumnOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	const rows, dim, streamChunk = 8000, 30, 32
	train := workload(t, rows, dim, safe.BinaryTask())
	fit := func() *safe.Result {
		res, err := safe.Fit(context.Background(), safe.FromFrame(train), safe.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fit() // warm the shared pool and the operator registry
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res := fit()
	runtime.ReadMemStats(&ms)
	perRow := float64(ms.TotalAlloc-before) / rows
	keptA := res.Report.Iterations[0].AfterIV
	limit := 8 * float64(max(streamChunk, keptA)+otherFitColumns)
	t.Logf("%.0f B/row (%.1f columns) for %d IV survivors; limit %.0f B/row", perRow, perRow/8, keptA, limit)
	if perRow > limit {
		t.Fatalf("an in-memory fit allocates %.0f B/row, over the %.0f B/row one copy of its %d IV survivors allows", perRow, limit, keptA)
	}
}

// TestFitEvents pins the event-stream protocol: balanced spans in order,
// monotone rows, report stage timings fed by the same instrumentation, one
// clock — started at fit-start — behind fit-end's Elapsed and Report.Total,
// and one protocol: the in-memory and the sharded fit of the same frame emit
// the same events with the same counts, Rows and Elapsed apart.
func TestFitEvents(t *testing.T) {
	train := workload(t, 3000, 8, safe.BinaryTask())
	type stamped struct {
		safe.FitEvent
		at time.Time
	}
	streams := map[string][]stamped{}
	reports := map[string]*safe.Report{}
	for _, sharded := range []bool{false, true} {
		name := "in-memory"
		if sharded {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			var events []stamped
			opts := []safe.Option{
				safe.WithSeed(3),
				safe.WithIterations(2),
				safe.WithEvents(func(ev safe.FitEvent) { events = append(events, stamped{ev, time.Now()}) }),
			}
			src := safe.FromFrame(train)
			if sharded {
				// What FromFrame + WithSharding(1000) opens, read slowly.
				src = safe.FromChunks(slowChunks{safe.NewFrameChunks(train, 1000), 20 * time.Millisecond})
			}
			res, err := safe.Fit(context.Background(), src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			streams[name], reports[name] = events, res.Report
			if len(events) == 0 {
				t.Fatal("no events emitted")
			}
			first, last := events[0], events[len(events)-1]
			if first.Kind != safe.EventFitStart {
				t.Errorf("first event %v, want fit-start", first.Kind)
			}
			if last.Kind != safe.EventFitEnd {
				t.Errorf("last event %v, want fit-end", last.Kind)
			}
			if last.Survivors != len(res.Pipeline.Output) {
				t.Errorf("fit-end survivors %d, want %d", last.Survivors, len(res.Pipeline.Output))
			}

			var openStages, iterations int
			var rows int64
			var firstRound time.Time
			stageEnds := map[safe.FitStage]int{}
			for _, ev := range events {
				if ev.Rows < rows {
					t.Fatalf("rows went backwards: %d after %d (%+v)", ev.Rows, rows, ev)
				}
				rows = ev.Rows
				switch ev.Kind {
				case safe.EventIterationStart:
					if firstRound.IsZero() {
						firstRound = ev.at
					}
				case safe.EventStageStart:
					openStages++
				case safe.EventStageEnd:
					openStages--
					stageEnds[ev.Stage]++
				case safe.EventIterationEnd:
					iterations++
				}
				if openStages < 0 || openStages > 1 {
					t.Fatalf("unbalanced stage spans at %+v", ev)
				}
			}
			if iterations != 2 {
				t.Errorf("iteration-end count %d, want 2", iterations)
			}
			for _, st := range []safe.FitStage{safe.StageMine, safe.StageScore, safe.StageGenerate, safe.StageIVFilter, safe.StagePearson, safe.StageRank} {
				if stageEnds[st] != 2 {
					t.Errorf("stage %v ended %d times, want 2", st, stageEnds[st])
				}
			}
			if rows == 0 {
				t.Error("no rows-processed accounting in the event stream")
			}
			var rounds time.Duration
			for _, ir := range res.Report.Iterations {
				rounds += ir.Elapsed
				total := ir.MineTime + ir.ScoreTime + ir.GenerateTime + ir.IVTime + ir.PearsonTime + ir.RankTime
				if total <= 0 {
					t.Errorf("round %d has no stage timings: %+v", ir.Round, ir)
				}
				if total > ir.Elapsed+time.Millisecond {
					t.Errorf("round %d stage timings %v exceed elapsed %v", ir.Round, total, ir.Elapsed)
				}
			}

			// The clock runs from fit-start: whatever streams before the first
			// round is inside Elapsed and Total.
			const slack = 5 * time.Millisecond
			if wall := last.at.Sub(first.at); wall > last.Elapsed+slack {
				t.Errorf("fit-end reports %v elapsed, but %v passed between the fit-start and fit-end events", last.Elapsed, wall)
			}
			pre := firstRound.Sub(first.at)
			if sharded && pre < 100*time.Millisecond {
				t.Fatalf("only %v before the first round: the slow source did not make the stretch visible", pre)
			}
			if res.Report.Total < rounds+pre-slack {
				t.Errorf("Report.Total %v is less than the rounds' %v plus the %v before the first", res.Report.Total, rounds, pre)
			}
		})
	}

	mem, sh := streams["in-memory"], streams["sharded"]
	if len(mem) == 0 || len(mem) != len(sh) {
		t.Fatalf("in-memory fit emitted %d events, sharded %d", len(mem), len(sh))
	}
	for i := range mem {
		a, b := mem[i].FitEvent, sh[i].FitEvent
		a.Rows, a.Elapsed, b.Rows, b.Elapsed = 0, 0, 0, 0
		if a != b {
			t.Errorf("event %d: in-memory %+v, sharded %+v", i, a, b)
		}
	}
	sameRounds(t, "sharded", reports["in-memory"], reports["sharded"])
}

// sameRounds requires two reports to agree on every count of every round.
func sameRounds(t *testing.T, label string, want, got *safe.Report) {
	t.Helper()
	if len(want.Iterations) != len(got.Iterations) {
		t.Fatalf("%s fit ran %d rounds, want %d", label, len(got.Iterations), len(want.Iterations))
	}
	for i, w := range want.Iterations {
		g := got.Iterations[i]
		w.Elapsed, w.MineTime, w.ScoreTime, w.GenerateTime, w.IVTime, w.PearsonTime, w.RankTime = 0, 0, 0, 0, 0, 0, 0
		g.Elapsed, g.MineTime, g.ScoreTime, g.GenerateTime, g.IVTime, g.PearsonTime, g.RankTime = 0, 0, 0, 0, 0, 0, 0
		if w != g {
			t.Errorf("round %d: %s fit counted %+v, want %+v", i+1, label, g, w)
		}
	}
}

// leakCheck snapshots the goroutine count and asserts the process returns
// to it (pool workers are persistent by design, so the baseline is taken
// after a warmup fit has populated the pools).
func leakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// warmup runs one small fit so the shared worker pools exist before a leak
// baseline is taken.
func warmup(t *testing.T, train *safe.Frame) {
	t.Helper()
	if _, err := safe.Fit(context.Background(), safe.FromFrame(train), safe.WithSeed(9)); err != nil {
		t.Fatal(err)
	}
}

// cancelAt runs a fit that cancels its own context the first time the
// event stream reaches the given stage's start, and asserts the fit
// returns context.Canceled promptly (the < 1s abort bound, with slack for
// loaded CI machines) without leaking goroutines.
func cancelAt(t *testing.T, train *safe.Frame, stage safe.FitStage, extra ...safe.Option) {
	t.Helper()
	warmup(t, train)
	check := leakCheck(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled atomic.Int64 // unix-nano timestamp of the cancel
	opts := append([]safe.Option{
		safe.WithSeed(9),
		safe.WithEvents(func(ev safe.FitEvent) {
			if ev.Kind == safe.EventStageStart && ev.Stage == stage && cancelled.Load() == 0 {
				cancelled.Store(time.Now().UnixNano())
				cancel()
			}
		}),
	}, extra...)
	_, err := safe.Fit(ctx, safe.FromFrame(train), opts...)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fit returned %v, want context.Canceled", err)
	}
	at := cancelled.Load()
	if at == 0 {
		t.Fatalf("stage %v never started", stage)
	}
	if latency := returned.Sub(time.Unix(0, at)); latency > time.Second {
		t.Errorf("fit took %v to honour cancellation (want < 1s)", latency)
	}
	check()
}

func TestFitCancelMidGeneration(t *testing.T) {
	cancelAt(t, workload(t, 8000, 12, safe.BinaryTask()), safe.StageGenerate)
}

func TestFitCancelMidSelection(t *testing.T) {
	train := workload(t, 8000, 12, safe.BinaryTask())
	cancelAt(t, train, safe.StagePearson)
	cancelAt(t, train, safe.StageRank)
}

func TestFitCancelMidShardFit(t *testing.T) {
	cancelAt(t, workload(t, 8000, 12, safe.BinaryTask()), safe.StageGenerate, safe.WithSharding(2000))
}

// cancellingChunks cancels a context as soon as the fit's streaming pass
// reads its Nth chunk — cancellation strictly in the middle of a shard
// pass, not at a stage boundary.
type cancellingChunks struct {
	safe.ChunkSource
	cancel     context.CancelFunc
	after      int
	reads      atomic.Int64
	firstFired atomic.Int64
}

func (c *cancellingChunks) Next() (*safe.Chunk, error) {
	if c.reads.Add(1) == int64(c.after) {
		c.firstFired.Store(time.Now().UnixNano())
		c.cancel()
	}
	return c.ChunkSource.Next()
}

func TestFitCancelMidShardPass(t *testing.T) {
	train := workload(t, 10000, 10, safe.BinaryTask())
	warmup(t, train)
	check := leakCheck(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancellingChunks{
		ChunkSource: safe.NewFrameChunks(train, 500),
		cancel:      cancel,
		after:       25, // mid-pass: beyond the first pass's 20 chunks
	}
	_, err := safe.Fit(ctx, safe.FromChunks(src), safe.WithSeed(9))
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sharded fit returned %v, want context.Canceled", err)
	}
	if at := src.firstFired.Load(); at != 0 {
		if latency := returned.Sub(time.Unix(0, at)); latency > time.Second {
			t.Errorf("sharded fit took %v to honour mid-pass cancellation (want < 1s)", latency)
		}
	}
	check()
}

// TestFitCSVSpillLifecycle pins that the temp column file behind a named
// CSV's sharded fit never outlives the fit, however it ends: completed,
// cancelled between passes, cancelled in the middle of the first pass (the
// tee) or of the third (the mapping), failed on a malformed row — which
// still reports frame's line position — and that a temp directory that
// cannot be written costs only the re-parse, not the selection.
func TestFitCSVSpillLifecycle(t *testing.T) {
	train := workload(t, 4000, 8, safe.BinaryTask())
	path := filepath.Join(t.TempDir(), "train.csv")
	if err := train.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	warmup(t, train)
	named := func(ctx context.Context, extra ...safe.Option) (*safe.Result, error) {
		return safe.Fit(ctx, safe.FromCSVFile(path, "label"),
			append([]safe.Option{safe.WithSeed(2), safe.WithSharding(1000)}, extra...)...)
	}

	empty := emptyTempDir(t)
	leaks := leakCheck(t)
	ref, err := named(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	empty(t)

	ctx, cancel := context.WithCancel(context.Background())
	_, err = named(ctx, safe.WithEvents(func(ev safe.FitEvent) {
		if ev.Kind == safe.EventStageStart && ev.Stage == safe.StageScore {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fit cancelled between passes returned %v, want context.Canceled", err)
	}
	empty(t)

	// A pass over 4 chunks is 5 Next calls; the counter sits above the spill,
	// so it keeps counting once the CSV below is no longer read.
	for _, after := range []int{2, 2*5 + 2} {
		csv, err := safe.OpenCSVChunks(path, "label", 1000)
		if err != nil {
			t.Fatal(err)
		}
		spill := colstore.NewSpill(csv)
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancellingChunks{ChunkSource: spill, cancel: cancel, after: after}
		_, err = safe.Fit(ctx, safe.FromChunks(src), safe.WithSeed(2))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fit cancelled at read %d returned %v, want context.Canceled", after, err)
		}
		if err := spill.Close(); err != nil {
			t.Fatal(err)
		}
		empty(t)
	}
	leaks()

	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(text), "\n")
	lines[2500] = "1,2,3\n" // line 2501, inside the third chunk
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = safe.Fit(context.Background(), safe.FromCSVFile(bad, "label"), safe.WithSeed(2), safe.WithSharding(1000))
	if err == nil || !strings.Contains(err.Error(), "line 2501: row has 3 fields, want 9") {
		t.Fatalf("malformed row: got %v, want frame's positioned error", err)
	}
	empty(t)

	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	reparsed, err := named(context.Background())
	if err != nil {
		t.Fatalf("fit without a writable temp directory: %v", err)
	}
	sameSelection(t, "unwritable TMPDIR", ref.Pipeline, reparsed.Pipeline)
	if *reparsed.Shard != *ref.Shard {
		t.Fatalf("shard stats moved without the spill:\nwith:    %+v\nwithout: %+v", *ref.Shard, *reparsed.Shard)
	}
}

// TestFitDeadline: an already-expired deadline aborts before any real work.
func TestFitDeadline(t *testing.T) {
	train := workload(t, 2000, 8, safe.BinaryTask())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := safe.Fit(ctx, safe.FromFrame(train)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired fit returned %v, want context.DeadlineExceeded", err)
	}
}

// TestFitChunkSourceAlwaysSharded: FromChunks selects the sharded engine
// with no explicit option.
func TestFitChunkSourceAlwaysSharded(t *testing.T) {
	train := workload(t, 2000, 6, safe.BinaryTask())
	res, err := safe.Fit(context.Background(), safe.FromChunks(safe.NewFrameChunks(train, 500)), safe.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard == nil || res.Shard.Partitions != 4 {
		t.Fatalf("chunk source did not fit sharded: %+v", res.Shard)
	}
}

// TestFitValidationEarlyStopping: the options path drives the in-memory
// engine's validation tracking.
func TestFitValidationEarlyStopping(t *testing.T) {
	target, _ := safe.TargetForTask(safe.BinaryTask())
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "fit-valid", Train: 3000, Test: 1000, Dim: 8,
		Interactions: 2, SignalScale: 2.5, Seed: 17, Target: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train),
		safe.WithSeed(5),
		safe.WithIterations(4),
		safe.WithValidation(ds.Test),
		safe.WithEarlyStopping(1, 0.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Iterations) == 0 {
		t.Fatal("no iterations reported")
	}
	for _, ir := range res.Report.Iterations {
		if ir.ValidAUC == 0 {
			t.Errorf("round %d has no validation score", ir.Round)
		}
	}
}

// TestFitOptionPatienceWithoutValidation: a Config with Patience > 0 but no
// validation frame has always fitted (the engines ignore Patience without
// one), so a stray Patience passed through WithConfig must fit on both
// engines; only the explicit WithEarlyStopping option demands
// WithValidation.
func TestFitOptionPatienceWithoutValidation(t *testing.T) {
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "pat-opt", Train: 800, Test: 100, Dim: 6, Interactions: 2, SignalScale: 2.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := safe.DefaultConfig()
	cfg.Patience = 2

	ctx := context.Background()
	if _, err := safe.Fit(ctx, safe.FromFrame(ds.Train), safe.WithConfig(cfg)); err != nil {
		t.Fatalf("Fit (in-memory) with Patience>0 via WithConfig failed: %v", err)
	}
	// The sharded engine ignores Patience without a validation frame too —
	// chunked sources route to it implicitly.
	if _, err := safe.Fit(ctx, safe.FromChunks(safe.NewFrameChunks(ds.Train, 200)), safe.WithConfig(cfg)); err != nil {
		t.Fatalf("Fit (sharded) with Patience>0 via WithConfig failed: %v", err)
	}
	// The explicit early-stopping option still demands a validation frame.
	if _, err := safe.Fit(ctx, safe.FromFrame(ds.Train), safe.WithEarlyStopping(2, 0)); err == nil {
		t.Fatal("WithEarlyStopping without WithValidation accepted")
	}
}
