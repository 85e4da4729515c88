package dist

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/shard"
)

// fingerprint reduces a fitted pipeline to the selected feature names in
// selection order — the string every differential in this file compares.
func fingerprint(p *core.Pipeline) string { return strings.Join(p.Output, "|") }

// taskCase is one task family of the differential matrix.
type taskCase struct {
	name    string
	task    core.Task
	target  datagen.TargetKind
	classes int
}

func taskCases() []taskCase {
	return []taskCase{
		{"binary", core.BinaryTask(), datagen.TargetBinary, 0},
		{"multiclass3", core.MulticlassTask(3), datagen.TargetMulticlass, 3},
		{"regression", core.RegressionTask(), datagen.TargetRegression, 0},
	}
}

// Pipe returns an in-process connection pair: the coordinator end and the
// worker end of a net.Pipe, framed like any network transport — the
// serialization path is identical to TCP, only the bytes never leave the
// process.
func Pipe() (coord, worker Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// taskWorkload generates the benchmark-shaped synthetic dataset (Interactions =
// Dim/3, signal scale 2.5) for a task family — the same planted signal the
// shard determinism pins fit.
func taskWorkload(t *testing.T, rows, dim int, tc taskCase) *frame.Frame {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "dist-test", Train: rows, Test: 64, Dim: dim,
		Interactions: dim / 3, SignalScale: 2.5, Seed: 11,
		Target: tc.target, Classes: tc.classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train
}

// writeSource persists a frame as the file-backed source a worker fleet
// opens by path. kind is SourceCSV or SourceColstore.
func writeSource(t *testing.T, train *frame.Frame, kind, chunkRows int) SourceSpec {
	t.Helper()
	dir := t.TempDir()
	switch kind {
	case SourceCSV:
		path := filepath.Join(dir, "train.csv")
		if err := train.WriteCSVFile(path); err != nil {
			t.Fatal(err)
		}
		return SourceSpec{Kind: SourceCSV, Path: path, Label: "label", ChunkRows: chunkRows}
	case SourceColstore:
		path := filepath.Join(dir, "train.col")
		if err := colstore.WriteFrame(path, train, colstore.WriterOptions{GroupRows: chunkRows}); err != nil {
			t.Fatal(err)
		}
		return SourceSpec{Kind: SourceColstore, Path: path}
	default:
		t.Fatalf("unknown source kind %d", kind)
		return SourceSpec{}
	}
}

// openLocal opens the coordinator's local handle on the source (schema
// only; rows stream on the workers).
func openLocal(t *testing.T, spec SourceSpec) frame.ChunkSource {
	t.Helper()
	if spec.Kind == SourceColstore {
		src, err := colstore.OpenSource(spec.Path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		return src
	}
	src, err := frame.OpenCSVChunks(spec.Path, spec.Label, spec.ChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// emptyTempDir points TMPDIR — where a worker's CSV session spills — at an
// empty directory for the test and returns a check that nothing is left in
// it once the sessions are closed.
func emptyTempDir(t *testing.T) (empty func()) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return func() {
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

// fleet is a test worker fleet: the coordinator-side connections plus a
// drain hook that must unwind cleanly after the coordinator closes.
type fleet struct {
	conns []Conn
	wait  func()
}

// pipeFleet starts n in-process workers over net.Pipe connections.
func pipeFleet(t *testing.T, ctx context.Context, n int) *fleet {
	t.Helper()
	f := &fleet{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		coordEnd, workerEnd := Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeConn(ctx, workerEnd)
		}()
		f.conns = append(f.conns, coordEnd)
	}
	f.wait = wg.Wait
	return f
}

// tcpFleet starts one loopback TCP worker server and dials n connections —
// n worker sessions sharing a process, framed over a real network stack.
func tcpFleet(t *testing.T, ctx context.Context, n int) *fleet {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(sctx)
	}()
	f := &fleet{}
	for i := 0; i < n; i++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		f.conns = append(f.conns, NewConn(nc))
	}
	f.wait = func() {
		cancel()
		wg.Wait()
	}
	return f
}

// distFit runs one distributed fit over the given coordinator connections
// and returns the pipeline and stats.
func distFit(t *testing.T, ctx context.Context, spec SourceSpec, conns []Conn, cfg core.Config) (*core.Pipeline, *shard.Stats) {
	t.Helper()
	p, _, st := distFitReport(t, ctx, spec, conns, cfg)
	return p, st
}

func distFitReport(t *testing.T, ctx context.Context, spec SourceSpec, conns []Conn, cfg core.Config) (*core.Pipeline, *core.Report, *shard.Stats) {
	t.Helper()
	coord := NewCoordinator(spec, conns...)
	defer coord.Close()
	src := openLocal(t, spec)
	p, rep, st, err := shard.Fit(ctx, src, shard.Config{Core: cfg, Exec: coord})
	if err != nil {
		t.Fatalf("distributed fit: %v", err)
	}
	return p, rep, st
}

// protocol is what a fit tells its observers, wall times apart: every event
// and every count of every round's report.
type protocol struct {
	events []core.FitEvent
	rounds []core.IterationReport
}

// observe hooks the recorder into cfg's event stream.
func (p *protocol) observe(cfg core.Config) core.Config {
	cfg.Events = func(ev core.FitEvent) {
		ev.Elapsed = 0
		p.events = append(p.events, ev)
	}
	return cfg
}

func (p *protocol) report(rep *core.Report) {
	for _, ir := range rep.Iterations {
		ir.Elapsed, ir.MineTime, ir.ScoreTime, ir.GenerateTime, ir.IVTime, ir.PearsonTime, ir.RankTime = 0, 0, 0, 0, 0, 0, 0
		p.rounds = append(p.rounds, ir)
	}
}

// localFingerprints returns the shard.Fit and core.Fit fingerprints for a
// workload — the two references every distributed run must match exactly.
func localFingerprints(t *testing.T, train *frame.Frame, cfg core.Config, chunkRows int) (shardFP, coreFP string) {
	t.Helper()
	p, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(train, chunkRows), shard.Config{Core: cfg})
	if err != nil {
		t.Fatalf("local sharded fit: %v", err)
	}
	shardFP = fingerprint(p)
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.Fit(train)
	if err != nil {
		t.Fatalf("in-memory fit: %v", err)
	}
	coreFP = fingerprint(cp)
	return shardFP, coreFP
}

// TestDistributedFitMatchesLocal is the subsystem's acceptance pin: for
// every task family, transport, and worker count, a distributed fit selects
// features bit-identical to both the local sharded engine and the in-memory
// engine on the same rows. Runs under -race in CI.
//
// It is also the shared-pool pin: the in-process fleets put every worker
// session's column loops and the coordinator's fold on the one
// parallel.Default() pool, where each finds the helpers taken by the others
// most of the time and must carry on inline. CI runs it by name with
// -cpu 1,4 and a short -timeout, so a caller queueing behind another shows as
// a hang there rather than as a slow fit.
func TestDistributedFitMatchesLocal(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	for _, tc := range taskCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			train := taskWorkload(t, rows, dim, tc)
			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			shardFP, coreFP := localFingerprints(t, train, cfg, chunkRows)
			if shardFP != coreFP {
				t.Fatalf("references disagree before any distribution:\nshard: %s\ncore:  %s", shardFP, coreFP)
			}
			// CSV exercises the workers' CSV open path in one family;
			// colstore covers the rest (and the binary decode path).
			kind := SourceColstore
			if tc.name == "binary" {
				kind = SourceCSV
			}
			spec := writeSource(t, train, kind, chunkRows)
			for _, transport := range []string{"pipe", "tcp"} {
				for _, workers := range []int{1, 2, 4} {
					ctx, cancel := context.WithCancel(context.Background())
					var fl *fleet
					if transport == "pipe" {
						fl = pipeFleet(t, ctx, workers)
					} else {
						fl = tcpFleet(t, ctx, workers)
					}
					p, st := distFit(t, ctx, spec, fl.conns, cfg)
					cancel()
					fl.wait()
					if fp := fingerprint(p); fp != shardFP {
						t.Fatalf("%s workers=%d diverged from local fit:\n got: %s\nwant: %s",
							transport, workers, fp, shardFP)
					}
					if st.Partitions != parts {
						t.Fatalf("%s workers=%d: fit saw %d partitions, want %d",
							transport, workers, st.Partitions, parts)
					}
				}
			}

			// Every family also fits the CSV: a worker session parses it once
			// and spills, a local fit over frame.CSVChunks parses it on every
			// pass, and the engine must not be able to tell — same selection,
			// the same stats field for field, the same events and rounds, no temp
			// file after the sessions.
			empty := emptyTempDir(t)
			if kind != SourceCSV {
				spec = writeSource(t, train, SourceCSV, chunkRows)
			}
			var local protocol
			rp, rrep, reparsed, err := shard.Fit(context.Background(), openLocal(t, spec), shard.Config{Core: local.observe(cfg)})
			if err != nil {
				t.Fatalf("local fit over the re-parsed csv: %v", err)
			}
			local.report(rrep)
			if fp := fingerprint(rp); fp != coreFP {
				t.Fatalf("re-parsed csv diverged from the in-memory fit:\n got: %s\nwant: %s", fp, coreFP)
			}
			for _, workers := range []int{1, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				fl := pipeFleet(t, ctx, workers)
				var dist protocol
				p, rep, st := distFitReport(t, ctx, spec, fl.conns, dist.observe(cfg))
				cancel()
				fl.wait()
				if fp := fingerprint(p); fp != coreFP {
					t.Fatalf("spilled csv workers=%d diverged from the in-memory fit:\n got: %s\nwant: %s", workers, fp, coreFP)
				}
				// One loop drives both: the distributed fit reports the local
				// fit's events, Rows included, and the local fit's counts.
				if dist.report(rep); !reflect.DeepEqual(dist, local) {
					t.Fatalf("spilled csv workers=%d: the distributed fit's events and rounds differ from the local fit's:\ndist:  %+v\nlocal: %+v", workers, dist, local)
				}
				if *st != *reparsed || st.BlocksSkipped != 0 {
					t.Fatalf("spilled csv workers=%d: stats differ from the re-parsed fit:\nspilled:   %+v\nre-parsed: %+v", workers, *st, *reparsed)
				}
				empty()
			}
		})
	}
}
