package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/wire/wiretest"
)

// goldenFrame is a fixed frame over six columns x0..x5 — the fit-2-fitted
// seed's schema. With specials, it mixes values inside and outside a training
// range with both zeros, NaN, ±Inf, a subnormal and magnitudes whose products
// overflow; without, it is the smooth part alone, to fit operators on.
func goldenFrame(specials bool) *frame.Frame {
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324}
	f := frame.NewWithShape(64, 6)
	for j, c := range f.Columns {
		for i := range c.Values {
			if specials && (i+j)%9 == 0 {
				c.Values[i] = odd[(i/9+j)%len(odd)]
			} else {
				c.Values[i] = math.Sin(float64(7*i+13*j)) * float64(1+(i*j)%5)
			}
		}
	}
	return f
}

// everyFittedKind is a pipeline with one node of each fitted operator kind
// the fit-2-fitted seed lacks, fitted on the smooth golden frame.
func everyFittedKind(t *testing.T) *Pipeline {
	train := goldenFrame(false)
	p := &Pipeline{OriginalNames: train.Names()}
	reg := operators.NewRegistry()
	for _, nd := range []struct {
		op     string
		inputs []string
	}{
		{"minmax", []string{"x0"}},
		{"zscore", []string{"x1"}},
		{"bin_freq", []string{"x2"}},
		{"bin_width", []string{"x3"}},
		{"groupby_std", []string{"x4", "x5"}},
		{"div", []string{"x0", "x5"}},
	} {
		op, err := reg.Get(nd.op)
		if err != nil {
			t.Fatal(err)
		}
		in := make([][]float64, len(nd.inputs))
		for k, name := range nd.inputs {
			in[k], _ = train.ColByName(name)
		}
		ap, err := op.Fit(in)
		if err != nil {
			t.Fatal(err)
		}
		p.Nodes = append(p.Nodes, FeatureNode{Name: nd.op, Inputs: nd.inputs, Applier: ap})
		p.Output = append(p.Output, nd.op)
	}
	return p
}

// TestFittedSeedTransformsToRecordedBits: the checked-in fit-2-fitted
// pipeline (groupby_avg, ridge and mul nodes) and a literal one with every
// other fitted kind transform goldenFrame to the bits
// testdata/golden_fit-2-fitted.txt records, one line per output feature. The
// file was written by this test, run once with a write in place of the
// comparison on a clone of the commit before appliers had one evaluation
// method; it is never regenerated from the code it checks.
func TestFittedSeedTransformsToRecordedBits(t *testing.T) {
	seed, err := LoadPipeline(bytes.NewReader(wiretest.ReadSeed(t, pipelineSeedPath("fit-2-fitted"))))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range []*Pipeline{seed, everyFittedKind(t)} {
		out, err := p.Transform(goldenFrame(true))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range out.Columns {
			fmt.Fprintf(&b, "%q", c.Name)
			for _, v := range c.Values {
				fmt.Fprintf(&b, " %016x", math.Float64bits(v))
			}
			b.WriteByte('\n')
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fit-2-fitted.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output line %d differs from the recorded bits:\n got %.300s\nwant %.300s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("%d output lines, %d recorded", len(gl), len(wl))
	}
}
