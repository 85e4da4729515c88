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
	mean, std, n := MeanStd(xs)
	if !almostEqual(mean, 2.5, 1e-12) || n != 4 {
		t.Errorf("MeanStd mean, n = %v, %d, want 2.5, 4", mean, n)
	}
	if !almostEqual(std*std, 1.25, 1e-12) {
		t.Errorf("MeanStd variance = %v, want 1.25", std*std)
	}
	if !almostEqual(std, math.Sqrt(1.25), 1e-12) {
		t.Errorf("MeanStd std = %v, want sqrt(1.25)", std)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

// twoPassReference is the NaN-skipping two-pass mean and population
// deviation as each standardiser wrote it before they shared MeanStd.
func twoPassReference(col []float64) (float64, float64, int) {
	var sum float64
	n := 0
	for _, v := range col {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range col {
		if math.IsNaN(v) {
			continue
		}
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n)), n
}

func TestMeanStd(t *testing.T) {
	nan := math.NaN()
	if mean, std, n := MeanStd([]float64{nan, 1, nan, 3, nan}); mean != 2 || std != 1 || n != 2 {
		t.Errorf("NaNs not skipped: MeanStd = %v, %v, %d, want 2, 1, 2", mean, std, n)
	}
	for _, xs := range [][]float64{nil, {}, {nan}, {nan, nan, nan}} {
		if mean, std, n := MeanStd(xs); mean != 0 || std != 0 || n != 0 {
			t.Errorf("MeanStd(%v) = %v, %v, %d, want 0, 0, 0", xs, mean, std, n)
		}
	}
	if mean, std, n := MeanStd([]float64{1e9 + 0.1, nan, 1e9 + 0.1, 1e9 + 0.1}); mean != 1e9+0.1 || std != 0 || n != 3 {
		t.Errorf("constant column: MeanStd = %v, %v, %d, want %v, 0, 3", mean, std, n, 1e9+0.1)
	}

	// A seeded sweep, with offsets large enough that a one-pass form
	// loses the deviation's low bits: the bits must be the two-pass loops'.
	rng := rand.New(rand.NewSource(45))
	offsets := []float64{0, 1, -3.5, 1e6, -1e9, 1e12, 3e15}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		off := offsets[rng.Intn(len(offsets))]
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = off + scale*rng.NormFloat64()
			if rng.Float64() < 0.1 {
				xs[i] = nan
			}
		}
		gm, gs, gn := MeanStd(xs)
		wm, ws, wn := twoPassReference(xs)
		if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gs) != math.Float64bits(ws) || gn != wn {
			t.Fatalf("trial %d (n=%d, offset %g, scale %g): MeanStd = %v, %v, %d, two passes = %v, %v, %d",
				trial, n, off, scale, gm, gs, gn, wm, ws, wn)
		}
	}

	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	if allocs := testing.AllocsPerRun(20, func() { MeanStd(xs) }); allocs != 0 {
		t.Errorf("MeanStd allocates %v times per call, want 0", allocs)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := entropyFromCounts(2, 2); !almostEqual(got, math.Ln2, 1e-12) {
		t.Errorf("balanced entropy = %v, want ln 2", got)
	}
	if got := entropyFromCounts(3, 0); got != 0 {
		t.Errorf("pure entropy = %v, want 0", got)
	}
	if got := entropyFromCounts(0, 0); got != 0 {
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

// EqualFrequencyBins is the reference binning the kernels are tested
// against: it assigns each value of xs to one of (at most) bins bins
// with roughly equal populations, returning the assignment and the actual
// number of bins produced (fewer when xs has few distinct values).
func EqualFrequencyBins(xs []float64, bins int) ([]int, int) {
	cuts := Quantiles(xs, bins)
	assign := Digitize(xs, cuts)
	return assign, len(cuts) + 1
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

// naiveDot is the one-accumulator loop Dot replaces.
func naiveDot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// TestDot holds the four-accumulator dot product to the one-accumulator sum
// it replaced: exactly on small integers, for every length 0–9 (every tail
// past the last whole group of four); and, on 20,000 normals and on a
// cancellation-heavy vector (±1e16 terms around ones that vanish into their
// rounding), within the bound of reassociated summation — each order is
// within n·ε·Σ|xᵢyᵢ| of the exact sum, so the two are within twice that.
func TestDot(t *testing.T) {
	for n := 0; n <= 9; n++ {
		x, y := make([]float64, n), make([]float64, n+3) // y may run longer
		for i := range x {
			x[i], y[i] = float64(i+1), float64(2*i-5)
		}
		if got, want := Dot(x, y), naiveDot(x, y); got != want {
			t.Errorf("length %d: Dot = %v, want %v", n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	normals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	cancel := make([]float64, 20000)
	ones := make([]float64, len(cancel))
	for i := range cancel {
		cancel[i], ones[i] = 1, 1
		if i%3 != 2 {
			cancel[i] = math.Copysign(1e16, float64(i%2)-0.5)
		}
	}
	for name, xy := range map[string][2][]float64{
		"normals":      {normals(20000), normals(20000)},
		"cancellation": {cancel, ones},
	} {
		x, y := xy[0], xy[1]
		var mag float64
		for i := range x {
			mag += math.Abs(x[i] * y[i])
		}
		tol := 2 * float64(len(x)) * 0x1p-53 * mag
		if got, want := Dot(x, y), naiveDot(x, y); math.Abs(got-want) > tol {
			t.Errorf("%s: Dot = %v, the one-accumulator sum %v: %v apart, bound %v", name, got, want, math.Abs(got-want), tol)
		}
	}
}

// BenchmarkDot times one dot product of a 20,000-row chunk's two columns,
// four accumulators against the one-accumulator loop.
func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, 20000), make([]float64, 20000)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var sink float64
	for _, bc := range []struct {
		name string
		dot  func(x, y []float64) float64
	}{{"four", Dot}, {"one", naiveDot}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(16 * len(x)))
			for i := 0; i < b.N; i++ {
				sink += bc.dot(x, y)
			}
		})
	}
	_ = sink
}
