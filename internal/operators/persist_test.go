package operators

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// roundTrip encodes and decodes an applier, failing the test on error.
func roundTrip(t *testing.T, a Applier) Applier {
	t.Helper()
	kind, data, err := EncodeApplier(a)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeApplier(kind, data)
	if err != nil {
		t.Fatalf("decode %s: %v", kind, err)
	}
	return out
}

func TestStatelessRoundTripAllBuiltins(t *testing.T) {
	cols2 := [][]float64{{1, 2, 3}, {4, 5, 6}}
	cols1 := [][]float64{{1, 2, 3}}
	cols3 := [][]float64{{1, 0, 1}, {4, 5, 6}, {7, 8, 9}}
	reg := NewRegistry()
	for _, name := range reg.Names() {
		op, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var cols [][]float64
		switch op.Arity() {
		case Unary:
			cols = cols1
		case Binary:
			cols = cols2
		case Ternary:
			cols = cols3
		default:
			continue
		}
		if d, ok := op.(*DiscretizeOp); ok {
			d.SetLabels([]float64{0, 1, 0})
		}
		a, err := op.Fit(cols)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := roundTrip(t, a)
		row := make([]float64, int(op.Arity()))
		for i := range row {
			row[i] = cols[i][1]
		}
		got, want := evalRow(b, row), evalRow(a, row)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: round-trip changed output %v -> %v", name, want, got)
		}
	}
}

func TestFittedRoundTripPreservesParametersProperty(t *testing.T) {
	// Property: for random training data, minmax/zscore/bin/groupby/ridge
	// appliers produce identical outputs after a serialisation round-trip,
	// on inputs outside the training range too.
	ops := []func() Operator{
		MinMax, ZScore,
		func() Operator { return Discretize(EqualFrequency, 6) },
		func() Operator { return GroupBy(GroupAvg, 8) },
		func() Operator { return RidgeOp(0.5) },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		for _, ctor := range ops {
			op := ctor()
			var cols [][]float64
			if op.Arity() == Unary {
				cols = [][]float64{a}
			} else {
				cols = [][]float64{a, b}
			}
			ap, err := op.Fit(cols)
			if err != nil {
				return false
			}
			kind, data, err := EncodeApplier(ap)
			if err != nil {
				return false
			}
			ap2, err := DecodeApplier(kind, data)
			if err != nil {
				return false
			}
			for trial := 0; trial < 10; trial++ {
				row := []float64{rng.NormFloat64() * 30, rng.NormFloat64() * 30}
				row = row[:int(op.Arity())]
				x, y := evalRow(ap, row), evalRow(ap2, row)
				if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDecodeApplierUnknownKind(t *testing.T) {
	if _, err := DecodeApplier("martian", json.RawMessage(`{}`)); err == nil {
		t.Error("unknown kind decoded")
	}
	if _, err := DecodeApplier("stateless", json.RawMessage(`{"op":"martian"}`)); err == nil {
		t.Error("unknown stateless op decoded")
	}
	if _, err := DecodeApplier("minmax", json.RawMessage(`garbage`)); err == nil {
		t.Error("garbage payload decoded")
	}
}

// customApplier exercises the PersistableApplier extension point.
type customApplier struct{ Scale float64 }

func (c customApplier) TransformInto(cols [][]float64, dst []float64) {
	for i := range dst {
		dst[i] = cols[0][i] * c.Scale
	}
}
func (c customApplier) Formula(names []string) string {
	return fmt.Sprintf("%g*%s", c.Scale, names[0])
}
func (c customApplier) PersistKind() string { return "test_scale" }
func (c customApplier) PersistData() (json.RawMessage, error) {
	return json.Marshal(map[string]float64{"scale": c.Scale})
}

func TestCustomApplierCodec(t *testing.T) {
	RegisterApplierCodec("test_scale", func(data json.RawMessage) (Applier, error) {
		var p map[string]float64
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, err
		}
		return customApplier{Scale: p["scale"]}, nil
	})
	a := customApplier{Scale: 2.5}
	b := roundTrip(t, a)
	if got := evalRow(b, []float64{4}); got != 10 {
		t.Errorf("custom round-trip = %v, want 10", got)
	}
	// Duplicate registration panics.
	defer func() {
		if recover() == nil {
			t.Error("duplicate codec registration did not panic")
		}
	}()
	RegisterApplierCodec("test_scale", nil)
}

func TestEncodeApplierRejectsUnknownType(t *testing.T) {
	type anonApplier struct{ Applier }
	if _, _, err := EncodeApplier(anonApplier{}); err == nil {
		t.Error("encoded a non-persistable applier")
	}
}

// TestDecodeApplierRejectsBadCuts: bin and group-by cuts are binary-searched,
// so a payload whose cuts are out of order or NaN would load and answer a
// wrong feature for every row — [3,1,2] put 0.5/1.5/2.5/3.5 in bins 0/2/3/3,
// and a groupby over [2,0] answered its last table entry for every key. Both
// kinds refuse them. (JSON has no NaN, so a NaN cut reaches checkCuts only
// from code; it is held to it directly.)
func TestDecodeApplierRejectsBadCuts(t *testing.T) {
	for kind, data := range map[string]string{
		"bin":     `{"cuts":[3,1,2],"name":"bin_freq"}`,
		"groupby": `{"cuts":[2,0],"table":[10,20,30],"fallback":0,"name":"groupby_avg"}`,
	} {
		if ap, err := DecodeApplier(kind, json.RawMessage(data)); err == nil {
			t.Errorf("%s: decoded %#v from descending cuts", kind, ap)
		}
	}
	if err := checkCuts("bin", []float64{0, math.NaN(), 1}); err == nil {
		t.Error("a NaN cut passed")
	}
	if err := checkCuts("bin", []float64{math.Inf(-1), 0, 0, math.Inf(1)}); err != nil {
		t.Errorf("ascending cuts with a repeat refused: %v", err)
	}
}
