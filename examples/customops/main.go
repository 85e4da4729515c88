// Custom operators: Section III requires that "new operators should be
// easily added". This example registers a domain-specific operator (a
// clipped percentage-change, common in risk features), runs SAFE with an
// extended operator set including GroupByThen aggregates, and prints the
// interpretable formulas of what survived selection.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro"
)

// pctChange is (a-b)/|b| clipped to [-10, 10] — a typical hand-crafted risk
// feature ("how far is this amount from the reference").
type pctChange struct{}

func (pctChange) Name() string      { return "pct_change" }
func (pctChange) Arity() safe.Arity { return safe.Binary }
func (pctChange) Fit(cols [][]float64) (safe.Applier, error) {
	if len(cols) != 2 {
		return nil, fmt.Errorf("pct_change wants 2 inputs, got %d", len(cols))
	}
	return pctApplier{}, nil
}

// pctApplier is the fitted form. An applier has one evaluation method: it
// writes the output column for its input columns into dst. Training, batch
// transforms and one-row inference all call it the same way.
type pctApplier struct{}

func (pctApplier) TransformInto(cols [][]float64, dst []float64) {
	a, b := cols[0], cols[1]
	for i := range dst {
		if b[i] == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = math.Max(-10, math.Min(10, (a[i]-b[i])/math.Abs(b[i])))
	}
}

func (pctApplier) Formula(names []string) string {
	return fmt.Sprintf("pct_change(%s, %s)", names[0], names[1])
}

func main() {
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "customops", Train: 4000, Test: 1200, Dim: 12,
		Informative: 2, Interactions: 4, SignalScale: 2.5, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Register the custom operator alongside the built-in catalogue.
	reg := safe.NewRegistry()
	reg.Register("pct_change", func() safe.Operator { return pctChange{} })

	res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train),
		safe.WithRegistry(reg),
		safe.WithOperators(
			"add", "sub", "mul", "div", // the paper's basic set
			"pct_change",  // our domain operator
			"groupby_avg", // SQL-style aggregate from the paper's catalogue
			"log", "sqrt", // unary transforms
		),
		safe.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	pipeline := res.Pipeline

	fmt.Printf("selected %d features (%d generated):\n",
		pipeline.NumFeatures(), pipeline.NumDerived())
	for _, f := range pipeline.Formulas() {
		fmt.Println("  ", f)
	}

	trNew, err := pipeline.Transform(ds.Train)
	if err != nil {
		log.Fatal(err)
	}
	teNew, err := pipeline.Transform(ds.Test)
	if err != nil {
		log.Fatal(err)
	}
	orig, err := safe.TrainClassifier("XGB", ds.Train, 1)
	if err != nil {
		log.Fatal(err)
	}
	engd, err := safe.TrainClassifier("XGB", trNew, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nXGB AUC: original %.4f -> engineered %.4f\n",
		safe.AUC(orig.Predict(ds.Test), ds.Test.Label),
		safe.AUC(engd.Predict(teNew), teNew.Label))
}
