package frame

import (
	"math"
	"testing"
)

// hashRow hashes one row from the seed, as a cache key built on HashFloats
// does.
func hashRow(row []float64) uint64 { return HashFloats(HashSeed(), row) }

func TestHashRowDeterministic(t *testing.T) {
	row := []float64{1, 2.5, -3, math.NaN(), 0}
	if hashRow(row) != hashRow(append([]float64(nil), row...)) {
		t.Error("identical rows hash differently")
	}
	other := []float64{1, 2.5, -3, math.NaN(), 1}
	if hashRow(row) == hashRow(other) {
		t.Error("distinct rows collided (1-element change)")
	}
}

func TestHashRowOrderSensitive(t *testing.T) {
	if hashRow([]float64{1, 2}) == hashRow([]float64{2, 1}) {
		t.Error("hash ignores element order")
	}
	if hashRow([]float64{0}) == hashRow([]float64{0, 0}) {
		t.Error("hash ignores length")
	}
}

func TestHashStringChains(t *testing.T) {
	a := HashFloats(HashString(HashSeed(), "model-a"), []float64{1, 2})
	b := HashFloats(HashString(HashSeed(), "model-b"), []float64{1, 2})
	if a == b {
		t.Error("different string prefixes collided")
	}
}

func TestRowsEqual(t *testing.T) {
	a := []float64{1, math.NaN(), 3}
	b := []float64{1, math.NaN(), 3}
	if !RowsEqual(a, b) {
		t.Error("NaN-equal rows reported unequal")
	}
	if RowsEqual(a, []float64{1, math.NaN()}) {
		t.Error("length mismatch reported equal")
	}
	if RowsEqual(a, []float64{1, 2, 3}) {
		t.Error("value mismatch reported equal")
	}
}
