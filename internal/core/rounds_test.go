package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestGreedyDedupMatchesReference holds the one redundancy scan to a
// brute-force reading of Algorithm 4 on random correlation matrices: visit
// the candidates from the highest IV down (ties by index), and keep one
// unless some already-kept candidate correlates with it above θ. The
// matrices have tied IVs, constant columns (which correlate with nothing,
// whatever the matrix says) and candidates outside the scanned subset; θ = 1
// keeps everything, since no |r| exceeds it.
func TestGreedyDedupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(24)
		corr := make([][]float64, k)
		for i := range corr {
			corr[i] = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			corr[i][i] = 1
			for j := i + 1; j < k; j++ {
				r := 2*rng.Float64() - 1
				if rng.Intn(8) == 0 {
					r = math.Copysign(1, r) // an exact duplicate or mirror
				}
				corr[i][j], corr[j][i] = r, r
			}
		}
		ivs := make([]float64, k)
		constant := make([]bool, k)
		var candidates []int
		for i := range ivs {
			ivs[i] = float64(rng.Intn(5)) / 4 // five levels: ties everywhere
			constant[i] = rng.Intn(6) == 0
			if rng.Intn(5) > 0 {
				candidates = append(candidates, i)
			}
		}
		for _, theta := range []float64{0.3, 0.8, 1} {
			test := func(j int, among []int) bool {
				if constant[j] {
					return false
				}
				for _, o := range among {
					if !constant[o] && math.Abs(corr[j][o]) > theta {
						return true
					}
				}
				return false
			}
			got, err := greedyDedup(context.Background(), ivs, candidates, test)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: repeatedly take the best unvisited candidate.
			visited := make([]bool, k)
			keep := make([]bool, k)
			for range candidates {
				best := -1
				for _, j := range candidates {
					if !visited[j] && (best < 0 || ivs[j] > ivs[best]) {
						best = j // candidates ascend, so the first of a tie wins
					}
				}
				visited[best] = true
				keep[best] = true
				for o := 0; o < k && !constant[best]; o++ {
					if o != best && keep[o] && !constant[o] && math.Abs(corr[best][o]) > theta {
						keep[best] = false
						break
					}
				}
			}
			want := []int{}
			for j := 0; j < k; j++ {
				if keep[j] {
					want = append(want, j)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d θ=%v: kept %v, reference %v\nivs %v\nconstant %v\ncandidates %v", trial, theta, got, want, ivs, constant, candidates)
			}
			if theta == 1 && len(got) != len(candidates) {
				t.Fatalf("trial %d: θ=1 dropped candidates: kept %v of %v", trial, got, candidates)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := greedyDedup(ctx, []float64{1, 2}, []int{0, 1}, func(int, []int) bool { return false }); err != context.Canceled {
		t.Fatalf("cancelled scan returned %v", err)
	}
}

// TestPairSourceReplaysSAFE: the pair-source seam is the whole of stages
// (1)-(2). A source that returns, round by round, the pairs SAFE's source
// chose fits the same Ψ — nodes and output, in order — as SAFE itself.
func TestPairSourceReplaysSAFE(t *testing.T) {
	ds := testDataset(t)
	fit := func(pairs PairSource) (*Pipeline, *Report) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Iterations = 2
		cfg.Pairs = pairs
		p, rep, err := Fit(context.Background(), ds.Train, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, rep
	}
	var recorded [][]Combo
	want, wantRep := fit(func(r *PairRound) ([]Combo, error) {
		combos, err := minedPairs(r)
		recorded = append(recorded, combos)
		return combos, err
	})
	if safe, _ := fit(nil); string(marshal(t, safe)) != string(marshal(t, want)) {
		t.Fatal("recording SAFE's source changed its fit")
	}
	got, rep := fit(func(r *PairRound) ([]Combo, error) { return recorded[r.Round], nil })
	if len(rep.Iterations) != 2 || len(recorded) != 2 {
		t.Fatalf("%d rounds replayed of %d recorded", len(rep.Iterations), len(recorded))
	}
	if g, w := string(marshal(t, got)), string(marshal(t, want)); g != w {
		t.Errorf("replayed pairs fit\n%s\nSAFE fit\n%s", g, w)
	}
	for i, ir := range rep.Iterations {
		if ir.CombosKept != wantRep.Iterations[i].CombosKept || ir.Selected != wantRep.Iterations[i].Selected {
			t.Errorf("round %d: kept %d, selected %d; SAFE kept %d, selected %d",
				i+1, ir.CombosKept, ir.Selected, wantRep.Iterations[i].CombosKept, wantRep.Iterations[i].Selected)
		}
	}
}

func marshal(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	b, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
