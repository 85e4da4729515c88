// Package experiments contains the harness that regenerates every table and
// figure of the paper's evaluation (Section V): Table III (classification
// performance), Table V (execution time), Table VI (feature stability),
// Table VIII (business datasets), Fig. 3 (feature importance), Fig. 4
// (performance across iterations), plus the search-space reduction and
// path-assumption analyses of Section IV. The cmd/safe-bench binary and the
// root bench_test.go both drive this package.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/clf"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/metrics"
)

// Method identifies a feature engineering method under comparison.
type Method string

// The six methods of Table III.
const (
	ORIG Method = "ORIG" // original features, no engineering
	FCT  Method = "FCT"  // FCTree
	TFC  Method = "TFC"
	RAND Method = "RAND"
	IMP  Method = "IMP"
	SAFE Method = "SAFE"
)

// AllMethods returns the Table III method order.
func AllMethods() []Method { return []Method{ORIG, FCT, TFC, RAND, IMP, SAFE} }

// FastMethods returns the methods compared on business data (Table VIII):
// TFC and FCTree are excluded there because "the execution time is too long".
func FastMethods() []Method { return []Method{ORIG, RAND, IMP, SAFE} }

// Options tunes the harness globally.
type Options struct {
	// Scale shrinks dataset row counts ((0,1]; 1 = the paper's sizes).
	Scale float64
	// BusinessScale shrinks the Table VII business datasets (default 0.01).
	BusinessScale float64
	// Repeats is how many seeds each (dataset, method, classifier) cell is
	// averaged over (the paper uses 100/10; default 3 keeps runs tractable).
	Repeats int
	// Datasets restricts benchmark datasets by name (nil = all 12).
	Datasets []string
	// Classifiers restricts the evaluator set (nil = all 9).
	Classifiers []string
	// Methods restricts the methods (nil = all 6).
	Methods []Method
	// Seed offsets all RNG seeds.
	Seed int64
}

func (o Options) normalise() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.1
	}
	if o.BusinessScale <= 0 || o.BusinessScale > 1 {
		o.BusinessScale = 0.005
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
	if len(o.Classifiers) == 0 {
		o.Classifiers = clf.Names()
	}
	if len(o.Methods) == 0 {
		o.Methods = AllMethods()
	}
	return o
}

func (o Options) benchmarkSpecs() []datagen.Spec {
	specs := datagen.BenchmarkSpecs(o.Scale)
	if len(o.Datasets) == 0 {
		return specs
	}
	want := make(map[string]bool, len(o.Datasets))
	for _, d := range o.Datasets {
		want[d] = true
	}
	out := specs[:0]
	for _, s := range specs {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// BuildPipeline runs one feature engineering method on the training frame
// and returns its pipeline and wall-clock fit time. ORIG returns an identity
// pipeline in ~zero time.
func BuildPipeline(method Method, train *frame.Frame, seed int64) (*core.Pipeline, time.Duration, error) {
	start := time.Now()
	var (
		p   *core.Pipeline
		err error
	)
	switch method {
	case ORIG:
		p = identityPipeline(train)
	case FCT:
		p, err = baselines.FCTree(train, baselines.FCTreeConfig{Seed: seed})
	case TFC:
		p, err = baselines.TFC(train, baselines.TFCConfig{Seed: seed})
	case RAND:
		p, err = fitLoop(train, baselines.RandPairs(seed))
	case IMP:
		p, err = fitLoop(train, baselines.ImpPairs(seed))
	case SAFE:
		p, err = fitLoop(train, nil)
	default:
		err = fmt.Errorf("experiments: unknown method %q", method)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: %s: %w", method, err)
	}
	return p, time.Since(start), nil
}

// fitLoop fits Algorithm 1 at the paper's configuration with the given pair
// source: RAND's, IMP's or, for nil, SAFE's. Every other stage is shared.
func fitLoop(train *frame.Frame, pairs core.PairSource) (*core.Pipeline, error) {
	cfg := core.DefaultConfig()
	cfg.Pairs = pairs
	p, _, err := core.Fit(context.Background(), train, nil, cfg)
	return p, err
}

func identityPipeline(train *frame.Frame) *core.Pipeline {
	names := train.Names()
	return &core.Pipeline{OriginalNames: names, Output: names}
}

// EvaluateAUC transforms train/test through the pipeline, fits the named
// classifier and returns test AUC.
func EvaluateAUC(p *core.Pipeline, classifier string, train, test *frame.Frame, seed int64) (float64, error) {
	trNew, err := p.Transform(train)
	if err != nil {
		return 0, err
	}
	teNew, err := p.Transform(test)
	if err != nil {
		return 0, err
	}
	return evaluateTransformed(trNew, teNew, classifier, seed)
}

// evaluateTransformed fits a classifier on already-transformed frames; the
// table runners transform once per method and reuse across classifiers.
func evaluateTransformed(train, test *frame.Frame, classifier string, seed int64) (float64, error) {
	model, err := clf.Train(classifier, colsOf(train), train.Label, seed)
	if err != nil {
		return 0, err
	}
	return metrics.AUC(model.Predict(colsOf(test)), test.Label), nil
}

func intersect(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	var out []string
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

func colsOf(f *frame.Frame) [][]float64 {
	cols := make([][]float64, f.NumCols())
	for j := range cols {
		cols[j] = f.Columns[j].Values
	}
	return cols
}
