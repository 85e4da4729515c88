package datagen

// BenchmarkSpecs returns the 12 dataset specs of Table IV with the paper's
// exact #train/#valid/#test/#dim shapes. scale in (0,1] shrinks the row
// counts proportionally (floored at 200 training rows) so the full table can
// be regenerated quickly during development; scale=1 reproduces the paper's
// sizes.
func BenchmarkSpecs(scale float64) []Spec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	base := []Spec{
		{Name: "valley", Train: 900, Valid: 0, Test: 312, Dim: 100, Seed: 101},
		{Name: "banknote", Train: 1000, Valid: 0, Test: 372, Dim: 4, Seed: 102},
		{Name: "gina", Train: 2800, Valid: 0, Test: 668, Dim: 970, Seed: 103},
		{Name: "spambase", Train: 3800, Valid: 0, Test: 801, Dim: 57, Seed: 104},
		{Name: "phoneme", Train: 4500, Valid: 0, Test: 904, Dim: 5, Seed: 105},
		{Name: "wind", Train: 5000, Valid: 0, Test: 1574, Dim: 14, Seed: 106},
		{Name: "ailerons", Train: 9000, Valid: 2000, Test: 2750, Dim: 40, Seed: 107},
		{Name: "eeg-eye", Train: 10000, Valid: 2000, Test: 2980, Dim: 14, Seed: 108},
		{Name: "magic", Train: 13000, Valid: 3000, Test: 3020, Dim: 10, Seed: 109},
		{Name: "nomao", Train: 22000, Valid: 6000, Test: 6000, Dim: 118, Seed: 110},
		{Name: "bank", Train: 35211, Valid: 4000, Test: 6000, Dim: 51, Seed: 111},
		{Name: "vehicle", Train: 60000, Valid: 18528, Test: 20000, Dim: 100, Seed: 112},
	}
	for i := range base {
		base[i].Train = scaleRows(base[i].Train, scale, 200)
		base[i].Valid = scaleRows(base[i].Valid, scale, 0)
		base[i].Test = scaleRows(base[i].Test, scale, 100)
	}
	return base
}

// BusinessSpecs returns the three fraud-detection dataset specs of
// Table VII. The paper's originals hold 2.5M-8M training rows of private
// Ant Financial data; the substitution keeps the exact dimensionality and
// heavy class imbalance (fraud ≈ 2%) and scales the row counts by scale
// (default 0.01 gives 25k-80k training rows). Setting scale=1 reproduces
// the paper's full sizes if you have the time and memory.
func BusinessSpecs(scale float64) []Spec {
	if scale <= 0 || scale > 1 {
		scale = 0.01
	}
	base := []Spec{
		{Name: "Data1", Train: 2502617, Valid: 625655, Test: 625655, Dim: 81, PosRate: 0.02, Seed: 201},
		{Name: "Data2", Train: 7282428, Valid: 1820607, Test: 1820607, Dim: 44, PosRate: 0.02, Seed: 202},
		{Name: "Data3", Train: 8000000, Valid: 2000000, Test: 2000000, Dim: 73, PosRate: 0.02, Seed: 203},
	}
	for i := range base {
		base[i].Train = scaleRows(base[i].Train, scale, 2000)
		base[i].Valid = scaleRows(base[i].Valid, scale, 500)
		base[i].Test = scaleRows(base[i].Test, scale, 500)
	}
	return base
}

// FraudSpec returns a mid-sized imbalanced fraud-detection dataset used by
// the examples: transaction-like features with ratio/product interactions
// (e.g. amount vs historical average) and a 2% fraud rate.
func FraudSpec() Spec {
	return Spec{
		Name:         "fraud",
		Train:        20000,
		Valid:        4000,
		Test:         4000,
		Dim:          30,
		Informative:  4,
		Interactions: 6,
		SignalScale:  2.5,
		PosRate:      0.02,
		Seed:         777,
	}
}

func scaleRows(n int, scale float64, floor int) int {
	if n == 0 {
		return 0
	}
	s := int(float64(n) * scale)
	if s < floor {
		s = floor
	}
	if s > n {
		s = n
	}
	return s
}
