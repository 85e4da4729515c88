package shard

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
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

// inMemoryEngine fits the resident frame on a pool of the given size; one
// worker runs everything inline.
func inMemoryEngine(workers int) fitEngine {
	return fitEngine{fmt.Sprintf("in-memory workers=%d", workers),
		func(t *testing.T, train *frame.Frame, cfg core.Config) *core.Pipeline {
			cfg.Workers = workers
			return fitInMemory(t, train, cfg)
		}}
}

// shardedEngine fits the frame out of core in chunkRows-row partitions, and
// holds the fit to the partition and pass counts the shape implies — passes
// is a count task's; the regression criterion streams one pass more. The live
// refinement pass is skipped (5 passes instead of 6) only while every base
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
			want := passes
			if cfg.Task.Kind == core.TaskRegression {
				want++
			}
			if st.Partitions != partitions || st.Passes != want {
				t.Fatalf("chunk=%d workers=%d: %d partitions in %d passes, want %d in %d",
					chunkRows, workers, st.Partitions, st.Passes, partitions, want)
			}
			if lossless := st.MaxQuantileRankError == 0; lossless != (passes == 5) {
				t.Fatalf("chunk=%d workers=%d: rank error %d with %d passes",
					chunkRows, workers, st.MaxQuantileRankError, passes)
			}
			return got
		}}
}

// assertDeterministic is the determinism table of both engines: every listed
// engine must select, on train under cfg, exactly what the one-worker
// in-memory fit selects — the same features, with the same formulas, in the
// same order.
func assertDeterministic(t *testing.T, train *frame.Frame, cfg core.Config, engines []fitEngine) {
	t.Helper()
	want := fingerprint(inMemoryEngine(1).fit(t, train, cfg))
	for _, e := range engines {
		if got := fingerprint(e.fit(t, train, cfg)); got != want {
			t.Fatalf("%d rows, %s diverged from the serial in-memory fit:\n got: %s\nwant: %s", train.NumRows(), e.name, got, want)
		}
	}
}

// TestShardedFitDeterminismMatrix is the determinism pin of the one loop under
// both column representations: for every task family, the in-memory engine
// under one worker (the reference every cell is held to), two and NumCPU, and
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
		{3000, 3000, 1, 6, all}, // one chunk, but of more rows than a partial holds
		{3000, 1000, 3, 5, all},
		{3000, 750, 4, 5, all},
		// Chunks straddling the partial budget, under and over the sketch size.
		{3000, partialSize, 3, 5, one},
		{3000, partialSize + 1, 3, 6, one},   // the first row past the budget compacts the partial
		{16400, partialSize, 17, 6, one},     // lossless partials, but the 16th merge outgrows a level
		{16400, partialSize + 1, 16, 6, one}, // both
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
					for _, workers := range []int{2, runtime.NumCPU()} {
						engines = append(engines, inMemoryEngine(workers))
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
