package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// fingerprint reduces a fitted pipeline to the string the determinism matrix
// compares: the selected feature names in selection order, and their formulas
// over the original columns. Any divergence in merge order, worker scheduling
// or partition folding shows up here.
func fingerprint(p *core.Pipeline) string {
	return strings.Join(p.Output, "|") + "\n" + strings.Join(p.Formulas(), "|")
}

// fitEngine is one way of running the one round loop: a column
// representation, and what goes with it — a partitioning, a pool size. fit
// fails the test unless the fit went through as the cell expects.
type fitEngine struct {
	name string
	fit  func(t *testing.T, train *frame.Frame, cfg core.Config) *core.Pipeline
}

// inMemoryEngine fits the resident frame on a pool of the given size;
// serial runs everything inline.
func inMemoryEngine(serial bool, workers int) fitEngine {
	return fitEngine{fmt.Sprintf("in-memory serial=%v workers=%d", serial, workers),
		func(t *testing.T, train *frame.Frame, cfg core.Config) *core.Pipeline {
			cfg.Parallel, cfg.Workers = !serial, workers
			return fitInMemory(t, train, cfg)
		}}
}

// shardedEngine fits the frame out of core in chunkRows-row partitions, and
// holds the fit to the partition and pass counts the shape implies. Both
// refinement passes are skipped (5 passes instead of 7) only while every
// sketch stays lossless: every chunk within the partial budget, so no partial
// compacts, and no more rows than the sketch size, so no merge does.
func shardedEngine(chunkRows, partitions, passes, workers int) fitEngine {
	return fitEngine{fmt.Sprintf("sharded chunk=%d workers=%d", chunkRows, workers),
		func(t *testing.T, train *frame.Frame, cfg core.Config) *core.Pipeline {
			cfg.Workers = workers
			got, _, st, err := Fit(context.Background(), frame.NewFrameChunks(train, chunkRows), Config{Core: cfg})
			if err != nil {
				t.Fatalf("chunk=%d workers=%d: %v", chunkRows, workers, err)
			}
			if st.Partitions != partitions || st.Passes != passes {
				t.Fatalf("chunk=%d workers=%d: %d partitions in %d passes, want %d in %d",
					chunkRows, workers, st.Partitions, st.Passes, partitions, passes)
			}
			if lossless := st.MaxQuantileRankError == 0; lossless != (passes == 5) {
				t.Fatalf("chunk=%d workers=%d: rank error %d with %d passes",
					chunkRows, workers, st.MaxQuantileRankError, passes)
			}
			return got
		}}
}

// assertDeterministic is the determinism table of both engines: every listed
// engine must select, on train under cfg, exactly what the fully serial
// in-memory fit selects — the same features, with the same formulas, in the
// same order.
func assertDeterministic(t *testing.T, train *frame.Frame, cfg core.Config, engines []fitEngine) {
	t.Helper()
	want := fingerprint(inMemoryEngine(true, 0).fit(t, train, cfg))
	for _, e := range engines {
		if got := fingerprint(e.fit(t, train, cfg)); got != want {
			t.Fatalf("%d rows, %s diverged from the serial in-memory fit:\n got: %s\nwant: %s", train.NumRows(), e.name, got, want)
		}
	}
}

// cutRecorder is the in-process executor with an ear on the pass specs: it
// keeps the cut sets of the first codes pass, which are the original columns'
// miner cuts exactly as the fit derived them.
type cutRecorder struct {
	*localExec
	liveCuts [][]float64
}

func (r *cutRecorder) RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error) {
	if spec.Kind == PassCodes && r.liveCuts == nil {
		r.liveCuts = spec.LiveCuts
	}
	return r.localExec.RunPass(ctx, spec, fold)
}

// TestShardedFitDeterminismMatrix is the determinism pin of the one loop under
// both column representations: for every task family, the in-memory engine
// under every listed worker count — including the fully serial path — and
// the sharded engine under every listed partitioning and worker count
// produce one fingerprint. The pools give every column and every candidate to
// one goroutine and the folds run in partition order regardless of completion
// order, so this must hold exactly — also under the race detector, where
// scheduling is deliberately perturbed.
//
// Each sharded row also states how many passes the fit takes (see
// shardedEngine).
func TestShardedFitDeterminismMatrix(t *testing.T) {
	all, one := []int{1, 2, 4, 8}, []int{2}
	shapes := []struct {
		rows, chunkRows, partitions, passes int
		workers                             []int
	}{
		// One, three and four partitions of 3,000 rows.
		{3000, 3000, 1, 7, all}, // one chunk, but of more rows than a partial holds
		{3000, 1000, 3, 5, all},
		{3000, 750, 4, 5, all},
		// Chunks straddling the partial budget, under and over the sketch size.
		{3000, partialSize, 3, 5, one},
		{3000, partialSize + 1, 3, 7, one},   // the first row past the budget compacts the partial
		{16400, partialSize, 17, 7, one},     // lossless partials, but the 16th merge outgrows a level
		{16400, partialSize + 1, 16, 7, one}, // both
	}
	families := []struct {
		name    string
		task    core.Task
		target  datagen.TargetKind
		classes int
	}{
		{"binary", core.BinaryTask(), datagen.TargetBinary, 0},
		{"multiclass3", core.MulticlassTask(3), datagen.TargetMulticlass, 3},
		{"regression", core.RegressionTask(), datagen.TargetRegression, 0},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Task = fam.task
			cfg.Seed = 1
			for _, rows := range []int{3000, 16400} {
				var engines []fitEngine
				if rows == 3000 {
					for _, workers := range []int{1, 2, runtime.NumCPU()} {
						engines = append(engines, inMemoryEngine(false, workers))
					}
				}
				for _, sh := range shapes {
					for _, workers := range sh.workers {
						if sh.rows == rows {
							engines = append(engines, shardedEngine(sh.chunkRows, sh.partitions, sh.passes, workers))
						}
					}
				}
				assertDeterministic(t, taskWorkload(t, rows, 9, fam.target, fam.classes), cfg, engines)
			}
		})
	}

	// The approximate row: no refinement, so the cuts come straight off the
	// merged sketches, and what the fit promises instead of equality is that
	// each one sits within Stats.MaxQuantileRankError ranks of its target.
	t.Run("approx-cuts", func(t *testing.T) {
		const rows, chunkRows = 16400, partialSize + 1
		train := taskWorkload(t, rows, 9, datagen.TargetBinary, 0)
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		norm, err := core.NormalizeConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{Core: cfg, ApproxCuts: true}
		le := newLocalExec(context.Background(), frame.NewFrameChunks(train, chunkRows), scfg, parallel.Get(1), norm.Registry, sketch.NewArena())
		defer le.close()
		rec := &cutRecorder{localExec: le}
		scfg.Exec = rec
		_, _, st, err := Fit(context.Background(), frame.NewFrameChunks(train, chunkRows), scfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Passes != 5 || st.MaxQuantileRankError == 0 { // 6 before the score pass went
			t.Fatalf("approx fit took %d passes with rank error %d, want 5 passes over lossy sketches", st.Passes, st.MaxQuantileRankError)
		}
		if len(rec.liveCuts) != train.NumCols() {
			t.Fatalf("recorded %d cut sets for %d columns", len(rec.liveCuts), train.NumCols())
		}
		for j, cuts := range rec.liveCuts {
			sorted := append([]float64(nil), train.Columns[j].Values...)
			sort.Float64s(sorted)
			ranks := sketch.CutRanks(int64(len(sorted)), norm.Miner.MaxBins)
			// Continuous columns: no two targets share a value, so cut i answers
			// target i (the binner drops at most a trailing cut at the maximum).
			if len(cuts) < len(ranks)-1 {
				t.Fatalf("column %d: %d cuts for %d targets", j, len(cuts), len(ranks))
			}
			for i, c := range cuts {
				lo := int64(sort.SearchFloat64s(sorted, c))
				hi := int64(sort.Search(len(sorted), func(k int) bool { return sorted[k] > c }))
				if hi == lo || ranks[i] < lo-st.MaxQuantileRankError || ranks[i] >= hi+st.MaxQuantileRankError {
					t.Fatalf("column %d cut %d = %v holds ranks [%d,%d), target %d, reported bound %d",
						j, i, c, lo, hi, ranks[i], st.MaxQuantileRankError)
				}
			}
		}
	})
}

// TestRebinBranchMatchesAcrossEngines covers the branch the default
// configuration never takes. Both engines keep a feature's GBDT bin codes for
// as long as it lives — miner, scorer, ranker, next round's miner — which is
// sound only while miner and ranker cut at the same bin count; with 32 and 64
// every stage must bin for itself, in both engines, and a second iteration
// makes round 2's miner rebin what round 1's ranker binned. The two engines
// must still select the same features, and the ones the engines selected
// before codes were carried at all (the fingerprint is of the fit at PR 18).
func TestRebinBranchMatchesAcrossEngines(t *testing.T) {
	const want = "8b33fe7991132492"
	train := taskWorkload(t, 3000, 9, datagen.TargetBinary, 0)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Iterations = 2
	cfg.Miner.MaxBins, cfg.Ranker.MaxBins = 32, 64
	mem := fitInMemory(t, train, cfg)
	sharded, _, st, err := Fit(context.Background(), frame.NewFrameChunks(train, 750), Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, mem, sharded)
	// Base sketch and codes, three passes a round, and one more between the
	// rounds: the selection's ranker codes are not the next miner's, so the
	// live set is coded again.
	if st.Passes != 9 {
		t.Errorf("sharded fit took %d passes, want 9", st.Passes)
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(mem.Formulas(), "|")))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("selection fingerprint %s, want %s:\n%v", got, want, mem.Formulas())
	}
}
