package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Variance(xs); !almostEqual(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := Std(xs); !almostEqual(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("Std = %v, want sqrt(1.25)", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy([]float64{0, 0, 1, 1}); !almostEqual(got, math.Ln2, 1e-12) {
		t.Errorf("balanced entropy = %v, want ln 2", got)
	}
	if got := BinaryEntropy([]float64{1, 1, 1}); got != 0 {
		t.Errorf("pure entropy = %v, want 0", got)
	}
	if got := BinaryEntropy(nil); got != 0 {
		t.Errorf("empty entropy = %v, want 0", got)
	}
}

func TestGainRatio(t *testing.T) {
	labels := []float64{0, 0, 1, 1}
	perfect := []int{0, 0, 1, 1}
	// gain = ln2, split entropy = ln2 -> ratio 1.
	if got := GainRatio(labels, perfect, 2); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect gain ratio = %v, want 1", got)
	}
	useless := []int{0, 1, 0, 1}
	if got := GainRatio(labels, useless, 2); got != 0 {
		t.Errorf("useless gain ratio = %v, want 0", got)
	}
	onePart := []int{0, 0, 0, 0}
	if got := GainRatio(labels, onePart, 1); got != 0 {
		t.Errorf("degenerate gain ratio = %v, want 0", got)
	}
}

func TestGainRatioIgnoresNegativeParts(t *testing.T) {
	labels := []float64{0, 1, 0, 1}
	parts := []int{-1, 0, -1, 1}
	// Only rows 1 and 3 count; both positive, single-label -> gain 0.
	if got := GainRatio(labels, parts, 2); got != 0 {
		t.Errorf("gain ratio with masked rows = %v, want 0", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson(x,2x) = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson(x,-2x) = %v, want -1", got)
	}
	konst := []float64{3, 3, 3, 3, 3}
	if got := Pearson(x, konst); got != 0 {
		t.Errorf("Pearson with constant = %v, want 0", got)
	}
	if got := Pearson(x, []float64{1}); got != 0 {
		t.Errorf("Pearson length mismatch = %v, want 0", got)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		return almostEqual(Pearson(x, y), Pearson(y, x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	cuts := Quantiles(xs, 4)
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts, want 3", len(cuts))
	}
	want := []float64{25, 50, 75}
	for i, c := range cuts {
		if c != want[i] {
			t.Errorf("cut[%d] = %v, want %v", i, c, want[i])
		}
	}
	if got := Quantiles(nil, 4); got != nil {
		t.Errorf("Quantiles(nil) = %v, want nil", got)
	}
	if got := Quantiles(xs, 1); got != nil {
		t.Errorf("Quantiles(q=1) = %v, want nil", got)
	}
}

func TestQuantilesDedup(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 2}
	cuts := Quantiles(xs, 4)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] == cuts[i-1] {
			t.Fatalf("duplicate cut %v", cuts[i])
		}
	}
}

func TestDigitize(t *testing.T) {
	cuts := []float64{10, 20}
	xs := []float64{5, 10, 15, 20, 25, math.NaN()}
	got := Digitize(xs, cuts)
	want := []int{0, 0, 1, 1, 2, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Digitize[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEqualFrequencyBinsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	assign, nb := EqualFrequencyBins(xs, 10)
	if nb != 10 {
		t.Fatalf("got %d bins, want 10", nb)
	}
	counts := make([]int, nb)
	for _, b := range assign {
		counts[b]++
	}
	for b, c := range counts {
		if c < 50 || c > 200 {
			t.Errorf("bin %d holds %d rows; want roughly 100", b, c)
		}
	}
}

func TestEqualWidthBins(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	assign, nb := EqualWidthBins(xs, 5)
	if nb != 5 {
		t.Fatalf("got %d bins, want 5", nb)
	}
	if assign[0] != 0 || assign[len(assign)-1] != 4 {
		t.Errorf("extremes map to %d and %d, want 0 and 4", assign[0], assign[len(assign)-1])
	}
	// Constant column degenerates to one bin.
	konst := []float64{2, 2, 2}
	_, nb = EqualWidthBins(konst, 5)
	if nb != 1 {
		t.Errorf("constant column bins = %d, want 1", nb)
	}
}

func TestInformationValueSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	strong := make([]float64, n)
	noise := make([]float64, n)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = float64(i % 2)
		strong[i] = labels[i]*2 + rng.NormFloat64()*0.3
		noise[i] = rng.NormFloat64()
	}
	ivStrong := InformationValue(strong, labels, 10)
	ivNoise := InformationValue(noise, labels, 10)
	if ivStrong <= IVMedium {
		t.Errorf("strong feature IV = %v, want > %v", ivStrong, IVMedium)
	}
	if ivNoise >= IVWeak {
		t.Errorf("noise feature IV = %v, want < %v", ivNoise, IVWeak)
	}
	if ivStrong <= ivNoise {
		t.Errorf("IV ordering violated: strong %v <= noise %v", ivStrong, ivNoise)
	}
}

func TestInformationValueSingleClass(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := InformationValue(xs, []float64{1, 1, 1, 1}, 4); got != 0 {
		t.Errorf("IV with one class = %v, want 0", got)
	}
}

func TestInformationValueNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = float64(rng.Intn(2))
		}
		return InformationValue(xs, ys, 10) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIVBands(t *testing.T) {
	cases := []struct {
		iv   float64
		want string
	}{
		{0.01, "useless"},
		{0.05, "weak"},
		{0.2, "medium"},
		{0.4, "strong"},
		{0.9, "extremely strong"},
	}
	for _, c := range cases {
		if got := IVBand(c.iv); got != c.want {
			t.Errorf("IVBand(%v) = %q, want %q", c.iv, got, c.want)
		}
	}
}

func TestPearsonBands(t *testing.T) {
	cases := []struct {
		r    float64
		want string
	}{
		{0.1, "very weak or none"},
		{-0.3, "weak"},
		{0.5, "moderate"},
		{-0.7, "strong"},
		{0.95, "extremely strong"},
	}
	for _, c := range cases {
		if got := PearsonBand(c.r); got != c.want {
			t.Errorf("PearsonBand(%v) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestKLD(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := KLD(p, p); !almostEqual(got, 0, 1e-12) {
		t.Errorf("KLD(p,p) = %v, want 0", got)
	}
	q := []float64{0.9, 0.1}
	if got := KLD(p, q); got <= 0 {
		t.Errorf("KLD(p,q) = %v, want > 0", got)
	}
	// p has mass where q has none -> +Inf.
	if got := KLD([]float64{1}, []float64{0}); !math.IsInf(got, 1) {
		t.Errorf("KLD with q=0 support = %v, want +Inf", got)
	}
}

func TestJSDProperties(t *testing.T) {
	p := []float64{0.7, 0.3}
	q := []float64{0.2, 0.8}
	d1 := JSD(p, q)
	d2 := JSD(q, p)
	if !almostEqual(d1, d2, 1e-12) {
		t.Errorf("JSD not symmetric: %v vs %v", d1, d2)
	}
	if d1 <= 0 {
		t.Errorf("JSD of distinct distributions = %v, want > 0", d1)
	}
	if got := JSD(p, p); !almostEqual(got, 0, 1e-12) {
		t.Errorf("JSD(p,p) = %v, want 0", got)
	}
	// Bounded by ln 2.
	if d := JSD([]float64{1, 0}, []float64{0, 1}); d > math.Ln2+1e-9 {
		t.Errorf("JSD = %v exceeds ln 2", d)
	}
}

func TestJSDDifferentLengths(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.25, 0.25, 0.25}
	d := JSD(p, q)
	if math.IsInf(d, 0) || math.IsNaN(d) || d < 0 {
		t.Errorf("JSD with padding = %v, want finite non-negative", d)
	}
}

func TestNormalize(t *testing.T) {
	xs := Normalize([]float64{1, 3})
	if !almostEqual(xs[0], 0.25, 1e-12) || !almostEqual(xs[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", xs)
	}
	zero := []float64{0, 0}
	if got := Normalize(zero); got[0] != 0 || got[1] != 0 {
		t.Errorf("Normalize all-zero = %v, want unchanged", got)
	}
}

func TestSplitEntropy(t *testing.T) {
	parts := []int{0, 1, 0, 1}
	if got := SplitEntropy(parts, 2); !almostEqual(got, math.Ln2, 1e-12) {
		t.Errorf("SplitEntropy = %v, want ln 2", got)
	}
	if got := SplitEntropy([]int{0, 0}, 1); got != 0 {
		t.Errorf("one-part SplitEntropy = %v, want 0", got)
	}
}
