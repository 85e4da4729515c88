package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// fuzzColumn decodes the fuzzer's byte string into float64 values (8 bytes
// each, little endian), capped so a pathological input cannot stall a run.
// Every bit pattern is admitted: NaNs, infinities, subnormals and both zero
// signs reach the kernel exactly as a frame column would deliver them.
func fuzzColumn(data []byte) []float64 {
	n := len(data) / 8
	if n > 4096 {
		n = 4096
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return xs
}

// fuzzLabels maps one byte per row (cycled when the string is short) to a
// label: mostly small class indices, the rest the values a criterion must
// tolerate — negative, fractional, out of range, huge, NaN, infinite.
func fuzzLabels(data []byte, n int) []float64 {
	odd := []float64{-1, -0.5, 0.5, 1.5, 9, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	labels := make([]float64, n)
	for i := range labels {
		b := byte(i)
		if len(data) > 0 {
			b = data[i%len(data)]
		}
		if b < 224 {
			labels[i] = float64(b % 7)
		} else {
			labels[i] = odd[int(b)%len(odd)]
		}
	}
	return labels
}

// FuzzCriterionExact holds the quantile kernel to its contract on arbitrary
// bit patterns: the binary IV, the multiclass IV at K = 2, 3, 7 and η² equal
// their row-order references (sorted cuts, binary search per row) exactly,
// and Bin equals SearchCuts on every value. rep tiles the column so that a
// short input still spans several sample strides.
func FuzzCriterionExact(f *testing.F) {
	f.Add([]byte("two scans, one grid, the same cuts as a sort gives"), []byte{0, 1, 2, 250}, uint8(8), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 0}, uint8(0), uint8(200))
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, colBytes, labelBytes []byte, bn, rep uint8) {
		base := fuzzColumn(colBytes)
		feature := base
		for r := 0; r < int(rep%32) && len(feature)+len(base) <= 1<<15; r++ {
			feature = append(feature, base...)
		}
		labels := fuzzLabels(labelBytes, len(feature))
		bins := 2 + int(bn)
		var s criteriaScratch
		checkCriteriaExact(t, fmt.Sprintf("n=%d bins=%d", len(feature), bins), &s, feature, labels, bins)
	})
}
