package dist

import (
	"context"
	"net"
	"os"
	"path/filepath"
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
// selection order — the string this package's differentials compare.
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
// Dim/3, signal scale 2.5) for a task family.
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
	coord := NewCoordinator(spec, conns...)
	defer coord.Close()
	p, _, st, err := shard.Fit(ctx, openLocal(t, spec), shard.Config{Core: cfg, Exec: coord})
	if err != nil {
		t.Fatalf("distributed fit: %v", err)
	}
	return p, st
}

// localFingerprint returns the local sharded fit's fingerprint for a
// workload — the reference a distributed run must match exactly.
func localFingerprint(t *testing.T, train *frame.Frame, cfg core.Config, chunkRows int) string {
	t.Helper()
	p, _, _, err := shard.Fit(context.Background(), frame.NewFrameChunks(train, chunkRows), shard.Config{Core: cfg})
	if err != nil {
		t.Fatalf("local sharded fit: %v", err)
	}
	return fingerprint(p)
}
