package clf

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_predictions.txt from the current evaluators")

const goldenPredictions = "testdata/golden_predictions.txt"

// goldenFrame is the fixed frame the golden predictions are trained and
// scored on: three signal columns and a noise column with about 3% NaNs, a
// column on a large offset, a constant column and an all-NaN column, so the
// evaluators' standardisers take every branch (NaN skipped, std guard,
// no value at all).
func goldenFrame(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	const m = 7
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if a*b+0.7*c+0.3*rng.NormFloat64() > 0 {
			labels[i] = 1
		}
		cols[0][i] = a
		cols[1][i] = b * 3
		cols[2][i] = c
		cols[3][i] = rng.NormFloat64()
		cols[4][i] = 1e6 + a*0.5 + rng.NormFloat64()
		cols[5][i] = 2.5
		cols[6][i] = math.NaN()
		for j := 0; j < 5; j++ {
			if rng.Float64() < 0.03 {
				cols[j][i] = math.NaN()
			}
		}
	}
	return cols, labels
}

// predictionHash is an FNV-64a hash of the prediction bits, in row order.
func predictionHash(ps []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range ps {
		u := math.Float64bits(p)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenLine renders one classifier's predictions on the golden test frame:
// its name, the row count, the hash of every prediction's bits and the
// first three predictions' bits.
func goldenLine(t *testing.T, name string) string {
	t.Helper()
	cols, labels := goldenFrame(800, 101)
	test, _ := goldenFrame(300, 202)
	model, err := Train(name, cols, labels, 5)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ps := model.Predict(test)
	if len(ps) != len(test[0]) {
		t.Fatalf("%s: %d predictions for %d rows", name, len(ps), len(test[0]))
	}
	return fmt.Sprintf("%s rows=%d hash=%s head=%x,%x,%x", name, len(ps), predictionHash(ps),
		math.Float64bits(ps[0]), math.Float64bits(ps[1]), math.Float64bits(ps[2]))
}

// TestPredictionsMatchRecorded trains each of Table III's nine evaluators on
// a fixed seeded frame with NaNs and holds its prediction bits to the line
// recorded in testdata/golden_predictions.txt. The file was written before
// the evaluators were merged into this package; regenerate it (-update) only
// for a change that means to move the numbers, and say so.
func TestPredictionsMatchRecorded(t *testing.T) {
	var got []string
	for _, name := range Names() {
		got = append(got, goldenLine(t, name))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPredictions), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPredictions, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPredictions)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded lines, %d classifiers", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("prediction bits moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestPredictAllocatesPerCallNotPerRow holds every evaluator's Predict to a
// fixed number of allocations per call, whatever the row count: the output
// and one row buffer (plus, for kNN, one neighbour heap). A model that
// allocates for each scored row — a standardised copy of the row, a boxed
// heap entry — makes the 300-row call cost more than the 30-row one.
func TestPredictAllocatesPerCallNotPerRow(t *testing.T) {
	cols, labels := goldenFrame(800, 101)
	test, _ := goldenFrame(300, 202)
	short := make([][]float64, len(test))
	for j, col := range test {
		short[j] = col[:30]
	}
	for _, name := range Names() {
		model, err := Train(name, cols, labels, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		few := testing.AllocsPerRun(3, func() { model.Predict(short) })
		many := testing.AllocsPerRun(3, func() { model.Predict(test) })
		if many != few || many > 4 {
			t.Errorf("%s: Predict allocates %v times for 30 rows and %v for 300, want the same count, at most 4", name, few, many)
		}
	}
}
