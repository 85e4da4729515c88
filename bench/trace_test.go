package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/frame"
)

// TestTracedFitTakesTheSamePath is the guard on the decorators: wrapped in
// them, each out-of-core engine must select the same features through the
// same number of passes over the same number of rows as the public safe.Fit
// does bare. A decorator that hid an optional interface (block skipping,
// stable chunks) would show here as a different pass or row count.
func TestTracedFitTakesTheSamePath(t *testing.T) {
	for _, name := range []string{"shard-colstore", "shard-csv-reg", "dist-tcp2"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			w = w.quick()
			ctx := context.Background()
			setup, err := setupFit(ctx, w, 11, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			job := fitJob{W: w, Files: setup.Files, Mode: modePlain, Procs: 2}
			plain, err := runFitJob(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			job.Mode = modeTraced
			traced, err := runFitJob(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Fingerprint != setup.WantFP || traced.Fingerprint != setup.WantFP {
				t.Errorf("fingerprints: untraced %s, traced %s, in-memory reference %s", plain.Fingerprint, traced.Fingerprint, setup.WantFP)
			}
			if plain.Shard.Passes != traced.Shard.Passes || plain.Shard.RowsStreamed != traced.Shard.RowsStreamed {
				t.Errorf("traced fit made %d passes over %d rows, untraced %d over %d",
					traced.Shard.Passes, traced.Shard.RowsStreamed, plain.Shard.Passes, plain.Shard.RowsStreamed)
			}
			if plain.Shard.BlocksSkipped != traced.Shard.BlocksSkipped {
				t.Errorf("traced fit skipped %d blocks, untraced %d", traced.Shard.BlocksSkipped, plain.Shard.BlocksSkipped)
			}
			m := map[string]float64{}
			tracedMetrics(traced, m)
			if m["core.stage_cover"] <= 0 || m["core.stage_cover"] > 1 {
				t.Errorf("core.stage_cover = %v", m["core.stage_cover"])
			}
			if w.Eng == engineDist {
				if m["dist.fold_s"] <= 0 || m["dist.recv_bytes"] <= 0 || m["dist.partial_bytes"] <= 0 {
					t.Errorf("distributed seams recorded nothing: %v", m)
				}
			} else if int(m["frame.chunks"]) != traced.Shard.Passes*parts {
				t.Errorf("source decorator saw %v chunks, want %d passes x %d", m["frame.chunks"], traced.Shard.Passes, parts)
			}
		})
	}
}

// TestTraceSourceKeepsOptionalInterfaces pins which interfaces the wrapper
// exposes for each kind of source the workloads open.
func TestTraceSourceKeepsOptionalInterfaces(t *testing.T) {
	w, _ := findWorkload("shard-colstore")
	setup, err := setupFit(context.Background(), w.quick(), 11, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := colstore.OpenSource(setup.Files.Train)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	rec := newRecorder(0)
	wrapped := traceSource(col, rec)
	sk, ok := wrapped.(frame.SkippableSource)
	if !ok {
		t.Fatal("wrapped colstore source lost frame.SkippableSource")
	}
	if sk.NumChunks() != col.NumChunks() {
		t.Errorf("NumChunks %d, want %d", sk.NumChunks(), col.NumChunks())
	}
	bare, isStable := col.(frame.StableSource)
	if got := wrapped.(frame.StableSource).StableChunks(); got != (isStable && bare.StableChunks()) {
		t.Errorf("StableChunks %v differs from the bare source", got)
	}

	mem := frame.NewFrameChunks(setup.Data.Train, 500)
	wrapped = traceSource(mem, rec)
	if _, ok := wrapped.(frame.SkippableSource); ok {
		t.Error("wrapped FrameChunks gained frame.SkippableSource")
	}
	if !wrapped.(frame.StableSource).StableChunks() {
		t.Error("wrapped FrameChunks lost StableChunks")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6},  // overlaps a: cover is 1..6
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 1, End: 2},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 2, 3: 3, 4: 4, 5: 1}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"rows_per_s","unit":"rows/s","better":"higher","bound":0.10},
		{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.10}],
		"per_layer":[{"name":"shard.passes","unit":"count","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rows, lat []float64) string {
		path := filepath.Join(dir, name)
		for i := range rows {
			rec := record{Workload: "w", resultLine: resultLine{Metrics: map[string]metricValue{
				"rows_per_s":     {rows[i], "rows/s"},
				"latency_p50_ms": {lat[i], "ms"},
			}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := appendRecord(path, record{Workload: "w", Trace: true, resultLine: resultLine{Metrics: map[string]metricValue{
			"shard.passes": {8, "count"},
		}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 102, 98}, []float64{10, 10.2, 9.9})
	same := write("same.jsonl", []float64{95, 97, 96}, []float64{10.5, 10.4, 10.6})
	slow := write("slow.jsonl", []float64{85, 86, 84}, []float64{10, 10, 10})

	var out bytes.Buffer
	ok, err := compareFiles(&out, bench, a, same)
	if err != nil || !ok {
		t.Fatalf("runs within the bound compared as ok=%v err=%v:\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "shard.passes") {
		t.Errorf("per-layer row missing:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, bench, a, slow)
	if err != nil || ok {
		t.Fatalf("a 15%% throughput loss compared as ok=%v err=%v:\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("no WORSE verdict:\n%s", out.String())
	}
	var rec record
	data, _ := os.ReadFile(a)
	if err := json.Unmarshal(bytes.SplitN(data, []byte("\n"), 2)[0], &rec); err != nil || rec.Workload != "w" {
		t.Errorf("-out line does not round-trip: %v %+v", err, rec)
	}
}
