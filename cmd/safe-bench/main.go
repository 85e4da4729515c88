// Command safe-bench regenerates the tables and figures of the SAFE paper's
// evaluation (Section V) on the synthetic data substrate.
//
// Usage:
//
//	safe-bench -experiment all                 # everything, reduced scale
//	safe-bench -experiment table3 -scale 1     # Table III at paper scale
//	safe-bench -experiment table5,table6
//	safe-bench -experiment table8 -business-scale 0.01
//	safe-bench -experiment fig3,fig4,searchspace,assumptions
//	safe-bench -datasets banknote,magic -clfs LR,XGB -repeats 5
//	safe-bench -experiment serving -serve-clients 8 -serve-batch 128
//
// Experiments: table3, table5, table6, table8, fig3, fig4, searchspace,
// assumptions, ablation, serving, all. An id outside that list is an error.
//
// The serving experiment trains a pipeline + GBDT model, stands up the
// internal/serve HTTP server in-process, and drives concurrent batched
// /predict load against it, reporting sustained rows/sec and latency
// quantiles.
//
// Fit performance is not measured here: the repository benchmark is
// `go run ./bench` (bench/README.md, docs/performance.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/gbdt"
	"repro/internal/serve"
)

// params is what the flags configure, as the experiments take it.
type params struct {
	opts    experiments.Options
	trials  int
	rounds  int
	serving servingOptions
}

// experimentTable lists the experiments -experiment accepts, in the order
// "all" runs them. Each prints its table to w and returns its structured
// result.
var experimentTable = []struct {
	id  string
	run func(p *params, w io.Writer) (any, error)
}{
	{"table3", func(p *params, w io.Writer) (any, error) { return experiments.RunTable3(p.opts, w) }},
	{"table5", func(p *params, w io.Writer) (any, error) { return experiments.RunTable5(p.opts, w) }},
	{"table6", func(p *params, w io.Writer) (any, error) { return experiments.RunTable6(p.opts, p.trials, w) }},
	{"table8", func(p *params, w io.Writer) (any, error) { return experiments.RunTable8(p.opts, w) }},
	{"fig3", func(p *params, w io.Writer) (any, error) { return experiments.RunFig3(p.opts, w) }},
	{"fig4", func(p *params, w io.Writer) (any, error) { return experiments.RunFig4(p.opts, p.rounds, w) }},
	{"searchspace", func(p *params, w io.Writer) (any, error) { return experiments.RunSearchSpace(p.opts, w) }},
	{"assumptions", func(p *params, w io.Writer) (any, error) { return experiments.RunAssumptions(p.opts, 20, w) }},
	{"ablation", func(p *params, w io.Writer) (any, error) { return experiments.RunAblation(p.opts, w) }},
	{"serving", func(p *params, w io.Writer) (any, error) { return runServing(p.serving, w) }},
}

// parseExperiments resolves a comma-separated -experiment value to the set of
// experiment ids to run. An unknown id is an error, not an experiment that ran
// nothing: a script naming a removed experiment must fail loudly.
func parseExperiments(list string) (map[string]bool, error) {
	valid := map[string]bool{}
	var ids []string
	for _, e := range experimentTable {
		valid[e.id] = true
		ids = append(ids, e.id)
	}
	selected := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !valid[e] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", e, strings.Join(ids, ", "))
		}
		selected[e] = true
	}
	if selected["all"] {
		return valid, nil
	}
	return selected, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "safe-bench:", err)
		os.Exit(1)
	}
}

// run is the command: flags from args, tables to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("safe-bench", flag.ContinueOnError)
	var (
		expFlag       = fs.String("experiment", "all", "comma-separated experiment ids")
		scale         = fs.Float64("scale", 0.1, "benchmark dataset row scale (0,1]; 1 = paper sizes")
		businessScale = fs.Float64("business-scale", 0.005, "business dataset row scale; 1 = paper's 2.5M-8M rows")
		repeats       = fs.Int("repeats", 3, "seeds averaged per cell (paper: 100/10)")
		trials        = fs.Int("stability-trials", 20, "repeated runs for Table VI (paper: 100)")
		rounds        = fs.Int("rounds", 5, "iteration rounds for Fig. 4")
		datasets      = fs.String("datasets", "", "comma-separated dataset subset (default: all 12)")
		clfs          = fs.String("clfs", "", "comma-separated classifier subset (default: all 9)")
		seed          = fs.Int64("seed", 0, "base random seed")
		jsonDir       = fs.String("json", "", "also write structured results as JSON into this directory")
		serveClients  = fs.Int("serve-clients", 4, "concurrent clients for the serving experiment")
		serveBatch    = fs.Int("serve-batch", 128, "rows per request for the serving experiment")
		serveRequests = fs.Int("serve-requests", 100, "requests per client for the serving experiment")
		serveCache    = fs.Int("serve-cache", 0, "feature cache capacity for the serving experiment (0 disables)")
		version       = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.String())
		return nil
	}
	selected, err := parseExperiments(*expFlag)
	if err != nil {
		return err
	}

	p := &params{
		opts: experiments.Options{
			Scale:         *scale,
			BusinessScale: *businessScale,
			Repeats:       *repeats,
			Seed:          *seed,
		},
		trials: *trials,
		rounds: *rounds,
		serving: servingOptions{
			Clients:   *serveClients,
			Batch:     *serveBatch,
			Requests:  *serveRequests,
			CacheSize: *serveCache,
			Seed:      *seed,
		},
	}
	if *datasets != "" {
		p.opts.Datasets = strings.Split(*datasets, ",")
	}
	if *clfs != "" {
		p.opts.Classifiers = strings.Split(*clfs, ",")
	}
	fmt.Fprintf(w, "safe-bench %s seed=%d\n", buildinfo.String(), *seed)

	for _, e := range experimentTable {
		if !selected[e.id] {
			continue
		}
		res, err := e.run(p, w)
		if err != nil {
			return err
		}
		if *jsonDir != "" {
			if err := experiments.ExportJSON(*jsonDir, e.id, res); err != nil {
				return err
			}
		}
	}
	return nil
}

type servingOptions struct {
	Clients   int
	Batch     int
	Requests  int
	CacheSize int
	Seed      int64
}

// servingResult is the structured output of the serving experiment.
type servingResult struct {
	Clients     int     `json:"clients"`
	Batch       int     `json:"batch"`
	Requests    uint64  `json:"requests"`
	Rows        uint64  `json:"rows"`
	Failed      uint64  `json:"failed"`
	Seconds     float64 `json:"seconds"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	NumFeatures int     `json:"num_features"`
}

// runServing stands up the serving layer in-process and drives concurrent
// batched /predict load against it, reporting sustained throughput. The
// pipeline trains through the public composable Fit API.
func runServing(opts servingOptions, w io.Writer) (*servingResult, error) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "serving-bench", Train: 4000, Test: 1000, Dim: 12,
		Interactions: 4, SignalScale: 2.5, Seed: 31 + opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	fitRes, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train), safe.WithSeed(opts.Seed))
	if err != nil {
		return nil, err
	}
	pipeline := fitRes.Pipeline
	tr, err := pipeline.Transform(ds.Train)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, tr.NumCols())
	for j := range cols {
		cols[j] = tr.Columns[j].Values
	}
	mcfg := gbdt.DefaultConfig()
	mcfg.NumTrees = 30
	model, err := gbdt.Train(cols, tr.Label, tr.Names(), mcfg)
	if err != nil {
		return nil, err
	}

	reg := serve.NewRegistry()
	if err := reg.Register("bench", "v1", pipeline, model); err != nil {
		return nil, err
	}
	srv := httptest.NewServer(serve.NewServer(reg, serve.Options{CacheSize: opts.CacheSize}))
	defer srv.Close()

	rows := make([][]float64, opts.Batch)
	for i := range rows {
		rows[i] = ds.Test.Row(i%ds.Test.NumRows(), nil)
	}
	body, err := json.Marshal(serve.BatchRequest{Rows: rows})
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	var failed atomic.Uint64
	start := time.Now()
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opts.Requests; i++ {
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Pull the server's own latency view.
	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		return nil, err
	}
	defer statsResp.Body.Close()
	var stats serve.StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		return nil, err
	}

	res := &servingResult{
		Clients:     opts.Clients,
		Batch:       opts.Batch,
		Requests:    stats.Requests,
		Rows:        stats.Rows,
		Failed:      failed.Load(),
		Seconds:     elapsed.Seconds(),
		RowsPerSec:  float64(stats.Rows) / elapsed.Seconds(),
		P50us:       stats.Latency.P50us,
		P99us:       stats.Latency.P99us,
		NumFeatures: pipeline.NumFeatures(),
	}
	fmt.Fprintf(w, "\nServing throughput (batched /predict, %d features)\n", res.NumFeatures)
	fmt.Fprintf(w, "  clients=%d batch=%d requests=%d rows=%d failed=%d\n",
		res.Clients, res.Batch, res.Requests, res.Rows, res.Failed)
	fmt.Fprintf(w, "  %.0f rows/sec over %.2fs, latency p50=%.0fus p99=%.0fus\n",
		res.RowsPerSec, res.Seconds, res.P50us, res.P99us)
	return res, nil
}
