// Sharding: fit SAFE out-of-core over a chunked CSV file and show that the
// sharded engine — per-partition mergeable sketches, a resident binned
// matrix for the XGBoost stages, and a handful of streaming passes —
// selects exactly the same features as the in-memory fit on the same rows.
//
// The same ChunkSource machinery drives `safe -shards/-chunk-rows` on files
// that never fit in memory; here the file is small so the two paths can be
// compared side by side.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
)

func main() {
	// 1. Data: 40k rows with planted interactions, serialised to CSV — the
	//    on-disk shape the out-of-core path consumes.
	ds, err := safe.GenerateDataset(safe.DatasetSpec{
		Name: "sharding", Train: 40000, Test: 2000, Dim: 16,
		Interactions: 5, SignalScale: 2.5, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "safe-sharding")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "train.csv")
	if err := ds.Train.WriteCSVFile(path); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("training file: %s (%.1f MB, %d rows x %d features)\n",
		path, float64(fi.Size())/(1<<20), ds.Train.NumRows(), ds.Train.NumCols())

	ctx := context.Background()

	// 2. Reference: the in-memory fit.
	t0 := time.Now()
	memRes, err := safe.Fit(ctx, safe.FromFrame(ds.Train), safe.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	memPipeline := memRes.Pipeline
	fmt.Printf("\nin-memory fit:  %7v  -> %d features\n", time.Since(t0).Round(time.Millisecond), memPipeline.NumFeatures())

	// 3. Sharded: the same Fit call, but the CSV source plus WithSharding
	//    selects the out-of-core engine, streaming the file in 5k-row
	//    chunks (8 partitions). Raw columns never materialise; the engine
	//    makes a few passes over the file, merging quantile sketches, label
	//    histograms and co-moment matrices per partition.
	t1 := time.Now()
	shRes, err := safe.Fit(ctx, safe.FromCSVFile(path, "label"),
		safe.WithSeed(1),
		safe.WithSharding(5000))
	if err != nil {
		log.Fatal(err)
	}
	shPipeline, stats := shRes.Pipeline, shRes.Shard
	fmt.Printf("sharded fit:    %7v  -> %d features (%d partitions, %d passes, %d rows streamed)\n",
		time.Since(t1).Round(time.Millisecond), shPipeline.NumFeatures(),
		stats.Partitions, stats.Passes, stats.RowsStreamed)

	// 4. The decisive comparison: identical features, identical order.
	same := len(memPipeline.Output) == len(shPipeline.Output)
	for i := 0; same && i < len(memPipeline.Output); i++ {
		same = memPipeline.Output[i] == shPipeline.Output[i]
	}
	fmt.Printf("\nselections identical: %v\n", same)
	fmt.Println("first engineered formulas:")
	for i, f := range shPipeline.Formulas() {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(shPipeline.Output)-i)
			break
		}
		fmt.Printf("  %s\n", f)
	}
}
