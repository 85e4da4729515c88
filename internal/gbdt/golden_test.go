package gbdt

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenData is a fixed 400×5 frame for the golden models: smooth values with
// NaN and ±Inf cells at fixed positions, rare enough (about one row in 53 per
// column) that no quantile cut lands on an infinity. labels returns the
// frame's target for an objective; targets come from the smooth part, so they
// are finite whatever the cells hold.
func goldenData() (cols [][]float64, labels func(Objective) []float64) {
	const n, m = 400, 5
	smooth := func(i, j int) float64 { return math.Sin(float64(7*i+13*j)) * float64(1+(i*j)%5) }
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	cols = make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			if (7*i+3*j)%53 == 0 {
				cols[j][i] = odd[(i+j)%len(odd)]
			} else {
				cols[j][i] = smooth(i, j)
			}
		}
	}
	labels = func(obj Objective) []float64 {
		y := make([]float64, n)
		for i := range y {
			s := smooth(i, 0) + smooth(i, 1)*smooth(i, 2)
			switch obj {
			case Logistic:
				if s > 0 {
					y[i] = 1
				}
			case Squared:
				y[i] = s
			case Softmax:
				switch {
				case s < -0.5:
					y[i] = 0
				case s < 0.5:
					y[i] = 1
				default:
					y[i] = 2
				}
			}
		}
		return y
	}
	return cols, labels
}

// goldenModels trains every objective on goldenData, with shape applied to
// the default configuration, and renders each model's MarshalJSON bytes, one
// line per objective.
func goldenModels(t *testing.T, shape func(*Config)) string {
	cols, labels := goldenData()
	return renderModels(t, cols, labels, shape)
}

// renderModels is goldenModels on a given frame. Each line keeps the
// "subsample=1 colsample=1" of the recorded files, which were written while
// the booster still had row and column subsampling; their lines for
// subsampled models were removed with it.
func renderModels(t *testing.T, cols [][]float64, labels func(Objective) []float64, shape func(*Config)) string {
	t.Helper()
	var b strings.Builder
	for _, obj := range []Objective{Logistic, Squared, Softmax} {
		cfg := DefaultConfig()
		shape(&cfg)
		cfg.Objective = obj
		if obj == Softmax {
			cfg.NumClass = 3
		}
		model, err := Train(cols, labels(obj), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := model.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "objective=%d subsample=1 colsample=1 %s\n", obj, data)
	}
	return b.String()
}

// TestTrainMatchesRecordedModels: Train on goldenData marshals, byte for
// byte, to the models testdata/golden_models.txt records — Logistic, Squared
// and Softmax(3). The file was written by
// this test, run once with a write in place of the comparison on a clone of
// the commit whose Train still boosted raw columns in a loop of its own per
// objective; it is never regenerated from the code it checks. It pins that
// Train is BinColumns then TrainBinned, and that one boosting loop serves
// every objective.
func TestTrainMatchesRecordedModels(t *testing.T) {
	got := goldenModels(t, func(cfg *Config) {
		cfg.NumTrees, cfg.MaxDepth = 8, 4
	})
	checkRecorded(t, "golden_models.txt", got)
}

// TestTrainMatchesRecordedDeepModels: the same on deeper trees over finer
// bins — MaxDepth 6, MinChildCount 5 and MaxBins 255 — so that the recorded
// bytes hold leaves MinChildCount forces and splits between bins of a few
// rows.
// testdata/golden_models_deep.txt was written by this test, run once with a
// write in place of the comparison on a clone of the commit whose rows still
// walked every new tree for their scores (before the partition updated them);
// it is never regenerated from the code it checks.
func TestTrainMatchesRecordedDeepModels(t *testing.T) {
	got := goldenModels(t, func(cfg *Config) {
		cfg.NumTrees, cfg.MaxDepth, cfg.MinChildCount, cfg.MaxBins = 8, 6, 5, 255
	})
	checkRecorded(t, "golden_models_deep.txt", got)
}

// wideData is a fixed 6,000×12 frame with NaN and ±Inf cells placed as in
// goldenData. Its root and depth-1 nodes hold more than rowGrain rows and its
// deeper levels many nodes, so with more than one worker a level's nodes and
// its histogram tasks are shared with the pool; the target mixes five of the
// twelve columns, so the trees use many features.
func wideData() (cols [][]float64, labels func(Objective) []float64) {
	const n, m = 6000, 12
	smooth := func(i, j int) float64 { return math.Sin(float64(7*i+13*j)) * float64(1+(i*j)%5) }
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	cols = make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			if (7*i+3*j)%53 == 0 {
				cols[j][i] = odd[(i+j)%len(odd)]
			} else {
				cols[j][i] = smooth(i, j)
			}
		}
	}
	labels = func(obj Objective) []float64 {
		y := make([]float64, n)
		for i := range y {
			s := smooth(i, 0) + smooth(i, 1)*smooth(i, 2) - 0.5*smooth(i, 5) + 0.25*smooth(i, 7)*smooth(i, 9)
			switch obj {
			case Logistic:
				if s > 0 {
					y[i] = 1
				}
			case Squared:
				y[i] = s
			case Softmax:
				switch {
				case s < -1:
					y[i] = 0
				case s < 1:
					y[i] = 1
				default:
					y[i] = 2
				}
			}
		}
		return y
	}
	return cols, labels
}

// TestTrainMatchesRecordedWideModels: Train on wideData marshals, byte for
// byte, to the models testdata/golden_models_wide.txt records, on 1, 2, 3 and
// 8 workers. MaxDepth 5 with MinChildWeight 20 leaves many children too light
// to split, so the recorded bytes hold every route a child's histogram takes:
// both children (the smaller built, the larger by subtraction), the smaller
// alone, and the larger alone by subtracting its built sibling from the
// parent. Every objective. The file was
// written by this test, run once with a write in place of the comparison on a
// clone of the commit whose trainer still grew each tree depth-first, one
// node at a time; it is never regenerated from the code it checks.
func TestTrainMatchesRecordedWideModels(t *testing.T) {
	cols, labels := wideData()
	for _, workers := range []int{1, 2, 3, 8} {
		got := renderModels(t, cols, labels, func(cfg *Config) {
			cfg.NumTrees, cfg.MaxDepth, cfg.MinChildWeight, cfg.Workers = 4, 5, 20, workers
		})
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkRecorded(t, "golden_models_wide.txt", got)
		})
	}
}

// checkRecorded compares got with testdata/name line by line.
func checkRecorded(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: model line %d differs from the recorded bytes:\n got %.300s\nwant %.300s", name, i, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d model lines, %d recorded", name, len(gl), len(wl))
}
