package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: fit children
// re-execute os.Executable(), which under go test is this binary.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		childMain(job)
	}
	os.Exit(m.Run())
}

const benchmarkJSON = "../BENCHMARK.json"

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in workload.go and metrics.go")

func wantContract() contract {
	c := contract{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 18,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWork{w.Name, w.Why})
	}
	c.EndToEnd, c.PerLayer = endToEnd, perLayer
	return c
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables the
// same list: a metric the file names and the harness does not print (or the
// other way round) would be refused by the driver.
func TestBenchmarkJSON(t *testing.T) {
	want := wantContract()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSON, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readContract(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("BENCHMARK.json differs from the harness tables; run go test ./bench -run TestBenchmarkJSON -update\n got: %+v\nwant: %+v", got, want)
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if n := len(got.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
}

// TestSmoke runs all six workloads in the quick shape, untraced and traced,
// and checks each result carries every metric BENCHMARK.json lists for that
// kind of run, with its unit, finite, and with no failed operation.
func TestSmoke(t *testing.T) {
	c, err := readContract(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for _, cw := range c.Workloads {
		for _, trace := range []bool{false, true} {
			name := cw.Name + "/untraced"
			if trace {
				name = cw.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				w, ok := findWorkload(cw.Name)
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q, the harness has none", cw.Name)
				}
				o := runOptions{W: w.quick(), Seed: 11, Seconds: 1, Trace: trace, Quick: true, Procs: 2, Scratch: scratch}
				res, err := run(context.Background(), o, nil)
				if err != nil {
					t.Fatal(err)
				}
				line := res.line(trace)
				if line.Failed != 0 || !line.Correct || line.Attempted < 1 {
					t.Errorf("attempted=%d failed=%d correct=%v: %v", line.Attempted, line.Failed, line.Correct, res.Notes)
				}
				want := map[string]string{}
				if trace {
					for _, m := range c.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range c.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", name, got.Value)
					}
				}
			})
		}
	}
	left, err := filepath.Glob(filepath.Join(scratch, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}
