package gbdt

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestTrainBinnedMatchesTrain pins the contract the sharded fit engine
// relies on: given the codes and cuts the internal binner would produce,
// TrainBinned returns a bit-identical model to Train on the raw columns.
func TestTrainBinnedMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m := 3000, 8
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			if j == 2 && rng.Float64() < 0.05 {
				cols[j][i] = math.NaN() // exercise the missing bin
				continue
			}
			cols[j][i] = rng.NormFloat64()
		}
	}
	labels := make([]float64, n)
	for i := range labels {
		s := cols[0][i] + 2*cols[1][i]*cols[3][i]
		if 1/(1+math.Exp(-s)) > rng.Float64() {
			labels[i] = 1
		}
	}

	cfg := DefaultConfig()
	cfg.NumTrees = 12
	cfg.MaxDepth = 4

	want, err := Train(cols, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pb, err := BinColumns(cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainBinned(pb, labels, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Trees) != len(want.Trees) {
		t.Fatalf("%d trees vs %d", len(got.Trees), len(want.Trees))
	}
	if got.BaseScore != want.BaseScore {
		t.Fatalf("base score %v vs %v", got.BaseScore, want.BaseScore)
	}
	for ti := range want.Trees {
		wn, gn := want.Trees[ti].Nodes, got.Trees[ti].Nodes
		if len(wn) != len(gn) {
			t.Fatalf("tree %d: %d nodes vs %d", ti, len(gn), len(wn))
		}
		for ni := range wn {
			if wn[ni] != gn[ni] {
				t.Fatalf("tree %d node %d: %+v vs %+v", ti, ni, gn[ni], wn[ni])
			}
		}
	}
	// Gain importances (the ranker artefact) must agree too.
	wg, gg := want.GainImportance(), got.GainImportance()
	for j := range wg {
		if wg[j] != gg[j] {
			t.Fatalf("gain importance %d: %v vs %v", j, gg[j], wg[j])
		}
	}
}

func TestTrainBinnedValidation(t *testing.T) {
	cfg := DefaultConfig()
	labels := []float64{0, 1, 0, 1, 1, 0}
	for _, tc := range []struct {
		name    string
		pb      *Prebinned
		labels  []float64
		wantErr string // "" when the matrix must train
	}{
		{"empty matrix", &Prebinned{}, []float64{1}, "no features"},
		{"row-count mismatch", &Prebinned{Codes: [][]uint8{{1, 2}}, Cuts: [][]float64{{0.5}}}, []float64{1}, "has 2 rows, want 1"},
		{"cuts/codes width mismatch", &Prebinned{Codes: [][]uint8{{1}}, Cuts: nil}, []float64{1}, "1 code columns but 0 cut arrays"},
		// One cut makes two bins, codes 0 (missing), 1 and 2. A 3 would index
		// past the feature's histogram slot, on a pool goroutine: it must stop
		// here.
		{"code beyond the top bin", &Prebinned{Codes: [][]uint8{{0, 1, 2, 3, 1, 2}}, Cuts: [][]float64{{0.5}}}, labels, "code 3 outside its 2 bins"},
		{"every code within its bins", &Prebinned{Codes: [][]uint8{{0, 1, 2, 2, 1, 2}}, Cuts: [][]float64{{0.5}}}, labels, ""},
		{"-Inf first cut", &Prebinned{Codes: [][]uint8{{1, 2, 3, 3, 1, 2}}, Cuts: [][]float64{{math.Inf(-1), 2}}}, labels, ""},
		// Unordered cuts give a split at a code a threshold that sends other
		// rows left than the partition did, so the booster's own scores would
		// disagree with its trees: each trained 50 trees before.
		{"descending cuts", &Prebinned{Codes: [][]uint8{{1, 2, 3, 3, 1, 2}}, Cuts: [][]float64{{5, 1}}}, labels, "cut 1 (1) is not above cut 0 (5)"},
		{"NaN cut", &Prebinned{Codes: [][]uint8{{1, 2, 3, 3, 1, 2}}, Cuts: [][]float64{{math.NaN(), 2}}}, labels, "cut 0 is NaN"},
		{"repeated cut", &Prebinned{Codes: [][]uint8{{1, 2, 3, 3, 1, 2}}, Cuts: [][]float64{{1, 1}}}, labels, "cut 1 (1) is not above cut 0 (1)"},
	} {
		_, err := TrainBinned(tc.pb, tc.labels, nil, cfg)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
	bad := cfg
	bad.MaxBins = 1000
	if _, err := BinColumns([][]float64{{1, 2, 3}}, bad); err == nil {
		t.Error("BinColumns accepted a bin count its codes cannot hold")
	}
}
