// The selection oracle: every engine, source, partitioning, worker count and
// fault plan must select, feature for feature and formula for formula, what
// the one-worker in-memory fit of the same rows selects. It is one table: a
// row is a dataset and its configuration, a column is a way of running the
// fit (an oracleCell), and every cell is held to the row's reference and to
// the side checks its engine owes (partition, pass and row counts, retries,
// temp files, leaked goroutines, the event stream).
package safe_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/chaos"
	"repro/internal/colstore"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/parallel"
)

// oracleCell is one way of running a fit: an engine, a source, the number of
// partitions it streams in (0 in memory), the worker count (the pool size,
// and for the distributed engine the number of worker sessions), and whether
// a plan of transient read faults is injected under a retry policy.
type oracleCell struct {
	engine, source string
	parts, workers int
	chaos          bool
}

func (c oracleCell) String() string {
	s := c.engine + "-" + c.source
	if c.parts > 0 {
		s += fmt.Sprintf("-p%d", c.parts)
	}
	s += fmt.Sprintf("-w%d", c.workers)
	if c.chaos {
		s += "-chaos"
	}
	return s
}

// allCells is every valid combination of engine, source, partitioning,
// worker count and fault plan. In memory a frame or a CSV read whole; out of
// core the five chunked sources, with and without faults (a fault plan needs
// a source the test can wrap, so only local fits take one); distributed the
// two sources a worker opens by path.
func allCells() []oracleCell {
	workers := []int{1, 2, 4}
	var cells []oracleCell
	for _, src := range []string{"frame", "csv"} {
		for _, w := range workers {
			cells = append(cells, oracleCell{engine: "in-memory", source: src, workers: w})
		}
	}
	for _, p := range []int{1, 3, 4, 17} {
		for _, faults := range []bool{false, true} {
			for _, src := range []string{"frame", "csv-reparsed", "csv-spilled", "colstore-stream", "colstore-mmap"} {
				for _, w := range workers {
					cells = append(cells, oracleCell{engine: "sharded", source: src, parts: p, workers: w, chaos: faults})
				}
			}
		}
		for _, src := range []string{"csv-spilled", "colstore-mmap"} {
			for _, w := range workers {
				cells = append(cells, oracleCell{engine: "distributed", source: src, parts: p, workers: w})
			}
		}
	}
	return cells
}

// someCells is the cross-section a dataset variant runs: every engine and
// every out-of-core source once, spread over the partitionings and worker
// counts, one of them under faults.
func someCells() []oracleCell {
	return []oracleCell{
		{engine: "in-memory", source: "frame", workers: 2},
		{engine: "sharded", source: "frame", parts: 4, workers: 2},
		{engine: "sharded", source: "csv-reparsed", parts: 17, workers: 1},
		{engine: "sharded", source: "csv-spilled", parts: 3, workers: 4},
		{engine: "sharded", source: "colstore-stream", parts: 4, workers: 1, chaos: true},
		{engine: "sharded", source: "colstore-mmap", parts: 17, workers: 2},
		{engine: "distributed", source: "colstore-mmap", parts: 4, workers: 2},
		{engine: "distributed", source: "csv-spilled", parts: 17, workers: 1},
	}
}

// oracleDataset is one row of the table: the rows, the configuration they
// are fitted under, and the cells that must reproduce the reference.
type oracleDataset struct {
	name       string
	task       safe.Task
	iterations int
	train      func(t *testing.T) *safe.Frame
	cells      []oracleCell
	long       bool // runs only without -short and not under -race
}

func oracleDatasets() []oracleDataset {
	binary, mc3, reg := safe.BinaryTask(), safe.MulticlassTask(3), safe.RegressionTask()
	generated := func(rows, dim int, task safe.Task) func(*testing.T) *safe.Frame {
		return func(t *testing.T) *safe.Frame { return workload(t, rows, dim, task) }
	}
	clustered := func(task safe.Task) func(*testing.T) *safe.Frame {
		return func(*testing.T) *safe.Frame { return clusteredFrame(6000, 6, task) }
	}
	// Row-clustered colstore files in 100-row groups: 60 partitions.
	groups := []oracleCell{
		{engine: "sharded", source: "colstore-stream", parts: 60, workers: 1},
		{engine: "sharded", source: "colstore-mmap", parts: 60, workers: 4},
		{engine: "sharded", source: "csv-reparsed", parts: 60, workers: 2},
		{engine: "distributed", source: "colstore-mmap", parts: 60, workers: 2},
	}
	return []oracleDataset{
		{name: "binary", task: binary, iterations: 1, train: generated(600, 6, binary), cells: allCells()},
		{name: "multiclass3", task: mc3, iterations: 1, train: generated(600, 6, mc3), cells: allCells()},
		{name: "regression", task: reg, iterations: 1, train: generated(600, 6, reg), cells: allCells()},
		// NaNs in source columns at three densities: cuts, IV bins and
		// moments are over each column's own non-NaN rows.
		{name: "binary-nan", task: binary, iterations: 1, cells: someCells(), train: func(t *testing.T) *safe.Frame {
			train := workload(t, 2000, 8, binary)
			for j, stride := range map[int]int{0: 50, 3: 7, 7: 3} {
				col := train.Columns[j].Values
				for i := j; i < len(col); i += stride {
					col[i] = math.NaN()
				}
			}
			return train
		}},
		// Class 2 only in the first quarter of the rows: three of four
		// partitions never see it, and the merged class counts hold zeros.
		{name: "multiclass3-absent", task: mc3, iterations: 1, cells: someCells(), train: func(t *testing.T) *safe.Frame {
			train := workload(t, 2000, 8, mc3)
			for i, y := range train.Label {
				if i < len(train.Label)/4 {
					if i%3 == 0 {
						train.Label[i] = 2
					}
				} else if y == 2 {
					train.Label[i] = float64(i % 2)
				}
			}
			return train
		}},
		// Round 2 generates from round 1's features, which every chunked
		// engine replays per chunk.
		{name: "binary-iter2", task: binary, iterations: 2, train: generated(2000, 8, binary), cells: someCells()},
		{name: "binary-clustered", task: binary, iterations: 1, train: clustered(binary), cells: groups},
		{name: "multiclass3-clustered", task: mc3, iterations: 1, train: clustered(mc3), cells: groups},
		{name: "regression-clustered", task: reg, iterations: 1, train: clustered(reg), cells: groups},
		// The acceptance workload: the benchmark's 100k×50 distribution.
		{name: "binary-100k", task: binary, iterations: 1, train: generated(100000, 50, binary), long: true,
			cells: []oracleCell{{engine: "sharded", source: "frame", parts: 4, workers: 2}}},
	}
}

// clusteredFrame builds rows whose every column trends with the row index
// plus bounded deterministic jitter, so each row group spans a narrow slice
// of each column's range; the labels follow the jitter, not the trend, so
// they mix within every group.
func clusteredFrame(rows, dim int, task safe.Task) *safe.Frame {
	f := frame.NewWithShape(rows, dim)
	state := uint64(2463534242)
	next := func() float64 { // xorshift in [0,1)
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1_000_003) / 1_000_003
	}
	for i := 0; i < rows; i++ {
		trend, jit := float64(i)/float64(rows), next()
		for j := 0; j < dim; j++ {
			f.Columns[j].Values[i] = (trend*100 + jit*0.03 + next()*0.01) * float64(j+1)
		}
		switch task.Kind {
		case safe.TaskBinary:
			if jit > 0.5 {
				f.Label[i] = 1
			}
		case safe.TaskMulticlass:
			f.Label[i] = math.Min(math.Floor(jit*float64(task.Classes)), float64(task.Classes-1))
		case safe.TaskRegression:
			f.Label[i] = f.Columns[0].Values[i]*0.5 + jit*3
		}
	}
	return f
}

// fingerprint is what the oracle compares: the selected features in
// selection order and their formulas over the original columns.
func fingerprint(p *safe.Pipeline) string {
	return strings.Join(p.Output, "|") + "\n" + strings.Join(p.Formulas(), "|")
}

// oracleRow is a dataset being checked: its files, its reference, and per
// partitioning the stats and the event stream of the first out-of-core cell
// to finish, which every other cell of the partitioning must repeat.
type oracleRow struct {
	oracleDataset
	train  *safe.Frame
	csv    string
	cols   map[int]string // column files by partition count
	ref    *safe.Result
	events []safe.FitEvent

	mu    sync.Mutex
	stats map[int]safe.ShardStats
	proto map[int][]safe.FitEvent
}

// oracleConcurrency is how many cells of a dataset fit at once. A small fit
// waits on its pool's hand-offs more than it computes, so cells overlap well;
// concurrent fits also share the worker pools, as a server's fits do.
const oracleConcurrency = 8

// TestSelectionOracle holds every cell of every dataset to the one-worker
// in-memory fit of the same rows; see the file comment. Cells are named
// engine-source[-pN]-wN[-chaos], so -run selects a slice of the table:
// 'TestSelectionOracle/.*/distributed', 'TestSelectionOracle/.*/csv',
// 'TestSelectionOracle/.*/chaos'.
func TestSelectionOracle(t *testing.T) {
	for _, d := range oracleDatasets() {
		t.Run(d.name, func(t *testing.T) {
			if d.long && (testing.Short() || raceEnabled) {
				t.Skip("100k×50 runs only without -short and not under the race detector")
			}
			row := newOracleRow(t, d)
			// A named CSV's out-of-core fit spills into TMPDIR, here and on
			// a distributed fit's workers, and must take it away again; no
			// fit, fault-injected or not, may leave a goroutine behind. The
			// shared pools live on by design, so they exist before the count.
			empty := emptyTempDir(t)
			for _, w := range []int{0, 1, 2, 4} {
				parallel.Get(w)
			}
			leaks := leakCheck(t)

			sem := make(chan struct{}, oracleConcurrency)
			var wg sync.WaitGroup
			for _, c := range d.cells {
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer func() { <-sem; wg.Done() }()
					t.Run(c.String(), func(t *testing.T) { row.check(t, c) })
				}()
			}
			wg.Wait()
			empty(t)
			leaks()
		})
	}
}

// newOracleRow generates the dataset, writes the files its cells read and
// fits the reference: the in-memory engine on one worker, from a whole
// Config (every cell composes the same fit from single options).
func newOracleRow(t *testing.T, d oracleDataset) *oracleRow {
	t.Helper()
	r := &oracleRow{oracleDataset: d, train: d.train(t), cols: map[int]string{},
		stats: map[int]safe.ShardStats{}, proto: map[int][]safe.FitEvent{}}
	dir := t.TempDir()
	for _, c := range d.cells {
		if strings.HasPrefix(c.source, "csv") && r.csv == "" {
			r.csv = filepath.Join(dir, "train.csv")
			if err := r.train.WriteCSVFile(r.csv); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(c.source, "colstore") && r.cols[c.parts] == "" {
			path := filepath.Join(dir, fmt.Sprintf("train-%d.col", c.parts))
			if err := colstore.WriteFrame(path, r.train, colstore.WriterOptions{GroupRows: r.chunkRows(c)}); err != nil {
				t.Fatal(err)
			}
			r.cols[c.parts] = path
		}
	}

	cfg := safe.DefaultConfig()
	cfg.Task, cfg.Iterations, cfg.Workers = d.task, d.iterations, 1
	var err error
	r.ref, err = safe.Fit(context.Background(), safe.FromFrame(r.train),
		safe.WithConfig(cfg), safe.WithEvents(record(&r.events)))
	if err != nil {
		t.Fatal(err)
	}
	p, rep := r.ref.Pipeline, r.ref.Report
	if len(p.Output) == 0 || p.Task != d.task || len(rep.Iterations) != d.iterations ||
		rep.Iterations[d.iterations-1].Selected != len(p.Output) {
		t.Fatalf("reference fit: task %v, %d rounds, selected %v", p.Task, len(rep.Iterations), p.Output)
	}
	return r
}

// record returns an event sink that appends to *events, wall times apart.
func record(events *[]safe.FitEvent) func(safe.FitEvent) {
	return func(ev safe.FitEvent) {
		ev.Elapsed = 0
		*events = append(*events, ev)
	}
}

// chunkRows is the partition size that cuts the rows into c.parts
// partitions, the last one short unless they divide evenly.
func (r *oracleRow) chunkRows(c oracleCell) int {
	return (r.train.NumRows() + c.parts - 1) / max(c.parts, 1)
}

// passes is what every out-of-core fit takes, whatever its task: base, the
// source columns' grid counts and gather, codes, then grid counts, gather and
// Gram a round.
func (r *oracleRow) passes() int { return 4 + 3*r.iterations }

// check runs one cell and holds it to the reference.
func (r *oracleRow) check(t *testing.T, c oracleCell) {
	rows, chunkRows := r.train.NumRows(), r.chunkRows(c)
	var events []safe.FitEvent
	opts := []safe.Option{safe.WithTask(r.task), safe.WithIterations(r.iterations),
		safe.WithWorkers(c.workers), safe.WithEvents(record(&events))}

	var src safe.Source
	var chunks safe.ChunkSource
	switch c.source {
	case "frame":
		src = safe.FromFrame(r.train)
		if c.chaos {
			chunks = safe.NewFrameChunks(r.train, chunkRows)
		}
	case "csv":
		src = safe.FromCSVFile(r.csv, "label")
	case "csv-reparsed":
		cs, err := safe.OpenCSVChunks(r.csv, "label", chunkRows)
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		chunks = cs
	case "csv-spilled":
		src = safe.FromCSVFile(r.csv, "label")
		if c.chaos {
			spill, err := colstore.OpenCSV(r.csv, "label", chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			defer spill.Close()
			chunks = spill
		}
	case "colstore-stream":
		cs, err := colstore.Open(r.cols[c.parts])
		if err != nil {
			t.Fatal(err)
		}
		defer cs.Close()
		chunks = cs
	case "colstore-mmap":
		src = safe.FromColumnFile(r.cols[c.parts])
		if c.chaos {
			cs, err := colstore.OpenSource(r.cols[c.parts])
			if err != nil {
				t.Fatal(err)
			}
			defer cs.Close()
			chunks = cs
		}
	}
	if c.engine != "in-memory" && (c.source == "frame" || c.source == "csv-spilled") {
		opts = append(opts, safe.WithSharding(chunkRows))
	}

	var faults *chaos.Source
	if c.chaos {
		// The fault plan wraps what the plan would have opened itself:
		// NewFrameChunks for a frame, colstore.OpenCSV for a named CSV,
		// colstore.OpenSource for a column file. Four transient faults, each
		// failing one or two reads, anywhere in the fit's lifetime of chunk
		// reads; zero backoff keeps the table fast (the schedule is the
		// retry tests' business).
		faults = chaos.Wrap(chunks, chaos.TransientPlan(42, 4, c.parts*r.passes()))
		chunks = faults
		opts = append(opts, safe.WithRetry(safe.RetryPolicy{MaxAttempts: 4}))
	}
	if chunks != nil {
		src = safe.FromChunks(chunks)
	}
	if c.engine == "distributed" {
		addrs, stop := workerFleet(t, c.workers)
		defer stop()
		opts = append(opts, safe.WithDistributed(addrs...))
	}

	res, err := safe.Fit(context.Background(), src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res.Pipeline), fingerprint(r.ref.Pipeline); got != want {
		t.Fatalf("selection diverged from the one-worker in-memory fit:\n got: %s\nwant: %s", got, want)
	}
	if res.Pipeline.Task != r.task {
		t.Errorf("pipeline task %v, want %v", res.Pipeline.Task, r.task)
	}
	sameRounds(t, c.String(), r.ref.Report, res.Report)
	if tr, err := res.Pipeline.Transform(r.train); err != nil || tr.NumCols() != len(res.Pipeline.Output) {
		t.Errorf("transform: %v, want %d columns", err, len(res.Pipeline.Output))
	}
	sameEvents(t, r.events, events, false)

	if c.engine == "in-memory" {
		if res.Shard != nil {
			t.Errorf("in-memory fit reported shard stats %+v", *res.Shard)
		}
		return
	}
	st := *res.Shard
	if st.Rows != rows || st.Partitions != c.parts || st.Passes != r.passes() || st.BlocksSkipped != 0 {
		t.Fatalf("%d rows in %d partitions and %d passes, want %d in %d and %d: %+v",
			st.Rows, st.Partitions, st.Passes, rows, c.parts, r.passes(), st)
	}
	if faults != nil {
		if faults.Injected() < 3 || st.Retries != int64(faults.Injected()) {
			t.Fatalf("%d retries for %d injected faults (want equal, and at least 3)", st.Retries, faults.Injected())
		}
		st.Retries = 0
	}
	// Every out-of-core fit of a partitioning streams the same rows the same
	// way and tells its observers the same story, Rows included.
	r.mu.Lock()
	want, ok := r.stats[c.parts]
	if !ok {
		r.stats[c.parts], r.proto[c.parts] = st, events
	}
	proto := r.proto[c.parts]
	r.mu.Unlock()
	if ok && st != want {
		t.Errorf("shard stats differ within the partitioning:\n got: %+v\nwant: %+v", st, want)
	}
	sameEvents(t, proto, events, true)
}

// sameEvents compares two event streams, Elapsed apart and, unless withRows,
// Rows apart (the in-memory engine counts scanned rows, an out-of-core one
// streamed rows).
func sameEvents(t *testing.T, want, got []safe.FitEvent, withRows bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !withRows {
			w.Rows, g.Rows = 0, 0
		}
		if w != g {
			t.Fatalf("event %d: %+v, want %+v", i, g, w)
		}
	}
}

// workerFleet serves n worker sessions from one in-process loopback server
// and returns their addresses (one per session) and a stop that drains them.
func workerFleet(t *testing.T, n int) (addrs []string, stop func()) {
	t.Helper()
	srv, err := dist.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ctx)
	}()
	for i := 0; i < n; i++ {
		addrs = append(addrs, srv.Addr())
	}
	return addrs, func() {
		cancel()
		wg.Wait()
	}
}
