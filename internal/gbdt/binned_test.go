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

	for _, sub := range []float64{1.0, 0.8} {
		cfg := DefaultConfig()
		cfg.NumTrees = 12
		cfg.MaxDepth = 4
		cfg.Subsample = sub
		cfg.Seed = 7

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
			t.Fatalf("subsample=%v: %d trees vs %d", sub, len(got.Trees), len(want.Trees))
		}
		if got.BaseScore != want.BaseScore {
			t.Fatalf("subsample=%v: base score %v vs %v", sub, got.BaseScore, want.BaseScore)
		}
		for ti := range want.Trees {
			wn, gn := want.Trees[ti].Nodes, got.Trees[ti].Nodes
			if len(wn) != len(gn) {
				t.Fatalf("subsample=%v tree %d: %d nodes vs %d", sub, ti, len(gn), len(wn))
			}
			for ni := range wn {
				if wn[ni] != gn[ni] {
					t.Fatalf("subsample=%v tree %d node %d: %+v vs %+v", sub, ti, ni, gn[ni], wn[ni])
				}
			}
		}
		// Gain importances (the ranker artefact) must agree too.
		wg, gg := want.GainImportance(), got.GainImportance()
		for j := range wg {
			if wg[j] != gg[j] {
				t.Fatalf("subsample=%v: gain importance %d: %v vs %v", sub, j, gg[j], wg[j])
			}
		}
	}
}

func TestTrainBinnedValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := TrainBinned(&Prebinned{}, []float64{1}, nil, cfg); err == nil {
		t.Error("accepted empty prebinned matrix")
	}
	pb := &Prebinned{Codes: [][]uint8{{1, 2}}, Cuts: [][]float64{{0.5}}}
	if _, err := TrainBinned(pb, []float64{1}, nil, cfg); err == nil {
		t.Error("accepted row-count mismatch")
	}
	if _, err := TrainBinned(&Prebinned{Codes: [][]uint8{{1}}, Cuts: nil}, []float64{1}, nil, cfg); err == nil {
		t.Error("accepted cuts/codes width mismatch")
	}
	// One cut makes two bins, codes 0 (missing), 1 and 2. A 3 would index past
	// the feature's histogram slot, on a pool goroutine: it must stop here.
	pb = &Prebinned{Codes: [][]uint8{{0, 1, 2, 3}}, Cuts: [][]float64{{0.5}}}
	if _, err := TrainBinned(pb, []float64{0, 1, 0, 1}, nil, cfg); err == nil || !strings.Contains(err.Error(), "code 3 outside its 2 bins") {
		t.Errorf("code beyond the top bin: error %v", err)
	}
	pb.Codes[0][3] = 2
	if _, err := TrainBinned(pb, []float64{0, 1, 0, 1}, nil, cfg); err != nil {
		t.Errorf("every code within its bins: %v", err)
	}
	bad := cfg
	bad.MaxBins = 1000
	if _, err := BinColumns([][]float64{{1, 2, 3}}, bad); err == nil {
		t.Error("BinColumns accepted a bin count its codes cannot hold")
	}
}
