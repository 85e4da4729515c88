package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// contract is BENCHMARK.json, key for key. The harness reads the bounds from
// it when comparing; smoke_test.go holds it equal to the tables in
// workload.go and metrics.go.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractWork   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// contractMetric is one metric entry; per-layer entries have no bound.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b contract
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords groups a -out file's metric values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[rec.Workload] = byMetric
		}
		for name, v := range rec.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (metric, workload) present in both files:
// the two medians, B÷A, and for end-to-end metrics whether B is worse than A
// by more than the metric's bound. It reports whether every end-to-end pair
// held.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bench, err := readContract(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tA (n)\tB (n)\tB/A\tbound\tverdict")
	ok := true
	row := func(m contractMetric, endToEnd bool) {
		for _, wl := range names {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			verdict, bound := "-", "-"
			if endToEnd {
				bound = fmt.Sprintf("%.2f", m.Bound)
				worse := ratio - 1
				if m.Better == "higher" {
					worse = 1 - ratio
				}
				switch {
				case ma == 0:
					verdict = "no base"
				case worse > m.Bound:
					verdict, ok = "WORSE", false
				case worse < -m.Bound:
					verdict = "better"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.3f\t%s\t%s\n",
				m.Name, wl, ma, m.Unit, len(va), mb, m.Unit, len(vb), ratio, bound, verdict)
		}
	}
	for _, m := range bench.EndToEnd {
		row(m, true)
	}
	for _, m := range bench.PerLayer {
		row(m, false)
	}
	return ok, tw.Flush()
}
