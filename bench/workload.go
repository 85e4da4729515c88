package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	safe "repro"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
)

// engine names the fit engine a workload drives.
type engine string

const (
	engineMem   engine = "mem"
	engineShard engine = "shard"
	engineDist  engine = "dist"
	engineServe engine = "serve"
)

// workload is one row of the benchmark matrix. Sizes are a quarter of the
// shapes the roadmap quotes (100k×50): the driver makes 136 runs inside 57
// minutes, so one run has about 21 s for set-up and measurement together,
// and a median needs at least five fits of the slowest engine inside it.
type workload struct {
	Name  string
	Why   string `json:"-"`
	Eng   engine
	Task  string // core.ParseTask syntax
	Rows  int
	Dim   int
	Iters int
	// CSV selects the CSV container for sharded fits (colstore otherwise).
	CSV bool
}

// parts is the partition count of every file-backed source: four row groups
// or four CSV chunks, the roadmap's reference sharding.
const parts = 4

// structureSeed fixes datagen's planted structure (which columns carry
// signal, which pairs interact). A fit's cost depends on it by ±25%, so it
// belongs to the workload's definition; -seed draws the row order, which
// changes every chunk's content and every float sum but not the multiset of
// rows, and the serve request mix.
const structureSeed = 11

var workloads = []workload{
	{Name: "mem-binary", Eng: engineMem, Task: "binary", Rows: 20000, Dim: 50, Iters: 1,
		Why: "in-memory engine, 20k x 50 binary, 1 iteration: core+operators+stats+gbdt only; the no-change cell for out-of-core and wire work"},
	{Name: "mem-mc3-iter2", Eng: engineMem, Task: "multiclass:3", Rows: 12000, Dim: 50, Iters: 2,
		Why: "in-memory, 12k x 50 multiclass:3, 2 iterations: softmax GBDT makes mine+rank dominate; round 2 generates over round 1's features"},
	{Name: "shard-colstore", Eng: engineShard, Task: "binary", Rows: 20000, Dim: 50, Iters: 1,
		Why: "sharded engine over a 4-row-group mmap colstore file, same rows as mem-binary: decode is free, sketch and pass orchestration dominate"},
	{Name: "shard-csv-reg", Eng: engineShard, Task: "regression", Rows: 12000, Dim: 50, Iters: 1, CSV: true,
		Why: "sharded regression over a 4-chunk CSV, 12k x 50: CSV parsing is re-paid on every pass; drives row-id passes and moment histograms"},
	{Name: "dist-tcp2", Eng: engineDist, Task: "binary", Rows: 20000, Dim: 50, Iters: 1,
		Why: "distributed fit over 2 loopback TCP worker connections, same file as shard-colstore: the difference is the wire protocol's cost"},
	{Name: "serve-mixed", Eng: engineServe, Task: "binary", Rows: 20000, Dim: 20, Iters: 1,
		Why: "HTTP serving, 64-row batches, 70% predict / 30% transform, half of rows cached: closed loop for throughput, open loop at 400 req/s for latency"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to the smoke-test shape.
func (w workload) quick() workload {
	w.Rows = 2000
	return w
}

func (w workload) task() core.Task {
	t, err := core.ParseTask(w.Task)
	if err != nil {
		panic(err) // the table above is the only source of task strings
	}
	return t
}

func (w workload) chunkRows() int { return (w.Rows + parts - 1) / parts }

// fitOptions are the options every fit of the workload runs with, in either
// engine: the paper defaults, the workload's task and iteration count, and
// a fixed engine seed (the harness seed only reaches the data).
func (w workload) fitOptions() []safe.Option {
	return []safe.Option{safe.WithTask(w.task()), safe.WithIterations(w.Iters), safe.WithSeed(1)}
}

// coreConfig is fitOptions as a core.Config, for the traced distributed fit
// that assembles shard.Fit by hand.
func (w workload) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Task = w.task()
	cfg.Iterations = w.Iters
	cfg.Seed = 1
	return cfg
}

// generate builds the workload's dataset: datagen with the fixed structure
// seed, then a row shuffle drawn from seed.
func (w workload) generate(seed int64) (*datagen.Dataset, error) {
	target, classes := safe.TargetForTask(w.task())
	ds, err := datagen.Generate(datagen.Spec{
		Name:         w.Name,
		Train:        w.Rows,
		Test:         heldOutRows,
		Dim:          w.Dim,
		Interactions: w.Dim / 3,
		SignalScale:  2.5,
		Seed:         structureSeed,
		Target:       target,
		Classes:      classes,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ds.Train.Shuffle(rng)
	ds.Test.Shuffle(rng)
	return ds, nil
}

// heldOutRows is the size of the frame every fitted pipeline must transform
// to finite values.
const heldOutRows = 256

// fitFiles are the inputs a fit child opens by path.
type fitFiles struct {
	Train string // colstore (or CSV) training file
	Test  string // colstore held-out frame
}

// fitSetup is what set-up leaves behind for the measured fits.
type fitSetup struct {
	Files fitFiles
	Data  *datagen.Dataset
	// WantFP is the in-memory reference fingerprint every sharded and
	// distributed fit must reproduce; empty for in-memory workloads, whose
	// repeats are compared with each other.
	WantFP string
	// WriteMBps is the colstore writer's throughput while writing Train
	// (0 for CSV).
	WriteMBps float64
}

// setupFit generates the dataset, writes the files the children read and,
// for the out-of-core engines, fits the in-memory reference.
func setupFit(ctx context.Context, w workload, seed int64, dir string) (*fitSetup, error) {
	ds, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	s := &fitSetup{Data: ds}
	s.Files.Test = filepath.Join(dir, "test.col")
	if err := colstore.WriteFrame(s.Files.Test, ds.Test, colstore.WriterOptions{}); err != nil {
		return nil, err
	}
	if w.CSV {
		s.Files.Train = filepath.Join(dir, "train.csv")
		if err := ds.Train.WriteCSVFile(s.Files.Train); err != nil {
			return nil, err
		}
	} else {
		s.Files.Train = filepath.Join(dir, "train.col")
		start := time.Now()
		if err := colstore.WriteFrame(s.Files.Train, ds.Train, colstore.WriterOptions{GroupRows: w.chunkRows()}); err != nil {
			return nil, err
		}
		s.WriteMBps = fileMB(s.Files.Train) / time.Since(start).Seconds()
	}
	if w.Eng != engineMem {
		ref, err := safe.Fit(ctx, safe.FromFrame(ds.Train), w.fitOptions()...)
		if err != nil {
			return nil, fmt.Errorf("reference fit: %w", err)
		}
		s.WantFP = fingerprint(ref.Pipeline)
	}
	return s, nil
}

// fingerprint hashes a pipeline's output formulas in order: the bit-identical
// selection contract the three engines share.
func fingerprint(p *core.Pipeline) string {
	sum := sha256.Sum256([]byte(strings.Join(p.Formulas(), "\n")))
	return hex.EncodeToString(sum[:8])
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}

// frameCols returns a frame's column slices.
func frameCols(f *frame.Frame) [][]float64 {
	cols := make([][]float64, f.NumCols())
	for j := range cols {
		cols[j] = f.Columns[j].Values
	}
	return cols
}
