package frame

import "math"

// FNV-1a parameters (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed returns the FNV-1a initial state, for use with HashFloats /
// HashString when chaining several values into one hash.
func HashSeed() uint64 { return fnvOffset64 }

// hashFloat64 folds one value's bit pattern into the running FNV-1a hash.
func hashFloat64(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for s := 0; s < 64; s += 8 {
		h ^= (bits >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// HashFloats folds the bit patterns of vals into the running FNV-1a hash h.
// NaNs hash by their bit pattern, so two rows that are bitwise identical —
// including missing values — hash identically.
func HashFloats(h uint64, vals []float64) uint64 {
	for _, v := range vals {
		h = hashFloat64(h, v)
	}
	return h
}

// HashString folds s into the running FNV-1a hash h. When chaining several
// variable-length strings, follow each with HashUint64 of its length so
// distinct splits of the same bytes cannot collide.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashUint64 folds v into the running FNV-1a hash h. Its main use is
// length-prefixing chained variable-length values.
func HashUint64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// RowsEqual reports whether two rows are bitwise identical, treating NaN as
// equal to NaN: the collision check for a key hashed with HashFloats.
func RowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
