// Command safe runs the SAFE automatic feature engineering pipeline on a
// labelled CSV file and writes the transformed dataset plus a report of the
// generated features.
//
// Usage:
//
//	safe -train train.csv -label y [-test test.csv] [-out out.csv]
//	     [-task binary|multiclass:K|regression]
//	     [-ops add,sub,mul,div] [-iters 1] [-max-features 0] [-gamma 0]
//	     [-progress] [-v]
//
// Out-of-core fitting: -chunk-rows N streams the training CSV in N-row
// chunks through the sharded fit engine (internal/shard), so files larger
// than memory can be fitted; -shards K instead derives the chunk size from
// a row-count pre-pass so the file splits into K partitions. With default
// settings the sharded fit selects the same features as the in-memory fit.
// On flaky storage, -retry N re-reads transiently failing chunks up to N
// total attempts with -retry-backoff capped exponential backoff; a
// recovered fit is bit-identical to a fault-free one.
//
// A -train file ending in .col or .colstore (written by safe-convert or
// safe-datagen -format colstore) is opened as a colstore binary columnar
// file and always fits sharded: its row groups are the partitions, and float
// columns are served zero-copy via mmap.
//
// Distributed fitting: -distribute host:port[,host:port...] delegates the
// sharded engine's per-partition pass compute to safe-worker processes at
// those addresses. Every worker must be able to open the training file by
// the same path (shared storage); the selection is bit-identical to a local
// fit for any worker count.
//
// A multi-minute fit is observable and interruptible: -progress prints
// each stage of each iteration live as the fit's event stream arrives, and
// Ctrl-C (SIGINT) or SIGTERM cancels the fit promptly through its context
// — the process exits cleanly instead of being killed mid-write.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/buildinfo"
)

func main() {
	var (
		trainPath    = flag.String("train", "", "training CSV path (required)")
		labelCol     = flag.String("label", "label", "label column name")
		testPath     = flag.String("test", "", "optional CSV to transform with the learned pipeline")
		outPath      = flag.String("out", "", "output CSV path for the transformed data (default: stdout summary only)")
		taskFlag     = flag.String("task", "binary", "prediction task: binary, multiclass:K, or regression")
		opsFlag      = flag.String("ops", "add,sub,mul,div", "comma-separated operator names")
		iters        = flag.Int("iters", 1, "number of SAFE iterations (nIter)")
		maxFeatures  = flag.Int("max-features", 0, "output feature budget (0 = 2x original count)")
		gamma        = flag.Int("gamma", 0, "top feature combinations per iteration (0 = 2x original count)")
		progress     = flag.Bool("progress", false, "print live per-stage progress while fitting")
		verbose      = flag.Bool("v", false, "print per-iteration details incl. stage wall-clock timings")
		savePipeline = flag.String("save-pipeline", "", "write the learned pipeline Ψ as JSON")
		loadPipeline = flag.String("load-pipeline", "", "skip fitting; load Ψ from a JSON file")
		chunkRows    = flag.Int("chunk-rows", 0, "fit out-of-core, streaming the training CSV in chunks of this many rows")
		shards       = flag.Int("shards", 0, "fit out-of-core over this many partitions (chunk size from a row-count pre-pass)")
		retry        = flag.Int("retry", 0, "retry transient chunk-read errors, up to this many total attempts per chunk (sharded fits; 0 = abort on first error)")
		retryBackoff = flag.Duration("retry-backoff", 5*time.Millisecond, "base backoff before the first chunk-read retry, doubling per attempt up to 250ms (with -retry)")
		distribute   = flag.String("distribute", "", "comma-separated safe-worker addresses; delegate pass compute to these workers (train file must be reachable by all)")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *trainPath == "" && *loadPipeline == "" {
		fmt.Fprintln(os.Stderr, "safe: -train (or -load-pipeline) is required")
		flag.Usage()
		os.Exit(2)
	}
	task, taskErr := safe.ParseTask(*taskFlag)
	if taskErr != nil {
		fatal(taskErr)
	}

	// Ctrl-C / SIGTERM cancel the fit through its context: the engines
	// abort at the next stage, candidate, boosting round, or source chunk
	// and Fit returns ctx.Err().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		pipeline *safe.Pipeline
		report   *safe.Report
		train    *safe.Frame // in-memory fits keep the frame for -out
		sharded  bool        // the fit streams its source: there is no frame to keep
		err      error
	)
	switch {
	case *loadPipeline != "":
		pipeline, err = safe.LoadPipelineFile(*loadPipeline)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded pipeline: task=%s, %d output features (%d derived)\n",
			pipeline.Task, pipeline.NumFeatures(), pipeline.NumDerived())

	default:
		opts := []safe.Option{
			safe.WithTask(task),
			safe.WithOperators(strings.Split(*opsFlag, ",")...),
			safe.WithIterations(*iters),
			safe.WithBudget(*maxFeatures),
			safe.WithGamma(*gamma),
		}
		if *progress {
			opts = append(opts, safe.WithEvents(printProgress))
		}
		// Sharded out-of-core fits stream the CSV (the training frame
		// never materialises); in-memory fits read it once and keep the
		// frame so -out can transform it without a second parse. When only
		// a shard count is given, a cheap row-count pre-pass sizes the
		// chunks.
		source := safe.FromCSVFile(*trainPath, *labelCol)
		sharded = isColstorePath(*trainPath) || *chunkRows > 0 || *shards > 0 || *distribute != ""
		switch {
		case *retry > 1 && !sharded:
			fmt.Fprintln(os.Stderr, "safe: note: -retry applies to sharded fits only (combine with -chunk-rows/-shards or a .col file); ignoring")
		case *retry > 1:
			opts = append(opts, safe.WithRetry(safe.RetryPolicy{MaxAttempts: *retry, BaseDelay: *retryBackoff}))
		}
		switch {
		case isColstorePath(*trainPath):
			// Binary columnar input (safe-convert / safe-datagen -format
			// colstore): inherently chunked by its row groups, fits
			// sharded with mmap column views and block-stat pass skipping;
			// -chunk-rows/-shards do not apply.
			source = safe.FromColumnFile(*trainPath)
		case *chunkRows > 0 || *shards > 0:
			rows := *chunkRows
			if rows <= 0 {
				rows, err = chunkRowsForShards(*trainPath, *shards)
				if err != nil {
					fatal(err)
				}
			}
			opts = append(opts, safe.WithSharding(rows))
		case *distribute != "":
			// The CSV source stays file-backed so the workers can open it
			// by path; partitioning uses the reader default.
		default:
			train, err = safe.ReadCSVFile(*trainPath, *labelCol)
			if err != nil {
				fatal(err)
			}
			source = safe.FromFrame(train)
		}
		if *distribute != "" {
			opts = append(opts, safe.WithDistributed(strings.Split(*distribute, ",")...))
		}
		var res *safe.Result
		res, err = safe.Fit(ctx, source, opts...)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "safe: fit cancelled:", err)
				os.Exit(130)
			}
			fatal(err)
		}
		pipeline, report = res.Pipeline, res.Report
		if st := res.Shard; st != nil {
			fmt.Printf("sharded fit: %d rows in %d partitions, %d streaming passes (%d rows streamed)\n",
				st.Rows, st.Partitions, st.Passes, st.RowsStreamed)
			if st.Retries > 0 {
				fmt.Printf("  %d transient chunk reads retried\n", st.Retries)
			}
		}
	}

	if report != nil {
		inCols := len(pipeline.OriginalNames)
		fmt.Printf("SAFE fit complete in %v (task=%s): %d input features -> %d output features (%d generated)\n",
			report.Total.Round(1e6), pipeline.Task, inCols, pipeline.NumFeatures(), pipeline.NumDerived())
		if *verbose || *progress {
			for _, ir := range report.Iterations {
				fmt.Printf("  round %d: mined %d combos (vs %d exhaustive), kept %d, generated %d, "+
					"IV-> %d, Pearson-> %d, selected %d (%v)\n",
					ir.Round, ir.CombosMined, ir.SearchSpaceAll, ir.CombosKept, ir.Generated,
					ir.AfterIV, ir.AfterPearson, ir.Selected, ir.Elapsed.Round(1e6))
				fmt.Printf("    stage times: mine=%v score=%v generate=%v iv=%v pearson=%v rank=%v\n",
					ir.MineTime.Round(1e6), ir.ScoreTime.Round(1e6), ir.GenerateTime.Round(1e6),
					ir.IVTime.Round(1e6), ir.PearsonTime.Round(1e6), ir.RankTime.Round(1e6))
			}
		}
		if *verbose {
			fmt.Println("selected features:")
			for _, f := range pipeline.Formulas() {
				fmt.Printf("  %s\n", f)
			}
		}
		if *savePipeline != "" {
			if err := pipeline.SaveFile(*savePipeline); err != nil {
				fatal(err)
			}
			fmt.Printf("saved pipeline to %s\n", *savePipeline)
		}
	}

	var target *safe.Frame
	switch {
	case *testPath != "":
		target, err = safe.ReadCSVFile(*testPath, *labelCol)
		if err != nil {
			fatal(err)
		}
	case *outPath != "":
		// The in-memory fit path transforms its own (already-read)
		// training frame; train is nil for out-of-core and loaded runs.
		target = train
	}
	if target == nil {
		if *outPath != "" && sharded {
			fmt.Println("note: out-of-core fit does not keep the training data in memory; pass -test to transform a dataset")
		}
		return // nothing in memory to transform
	}
	transformed, err := pipeline.Transform(target)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := transformed.WriteCSVFile(*outPath); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d rows x %d features to %s\n",
			transformed.NumRows(), transformed.NumCols(), *outPath)
	}
}

// printProgress renders the fit's event stream as live stage lines on
// stderr (stdout stays machine-consumable for -out summaries).
func printProgress(ev safe.FitEvent) {
	switch ev.Kind {
	case safe.EventIterationStart:
		fmt.Fprintf(os.Stderr, "round %d: %d live features\n", ev.Round, ev.Candidates)
	case safe.EventStageEnd:
		fmt.Fprintf(os.Stderr, "  %-9s %6d -> %-6d %8v  (%d rows processed)\n",
			ev.Stage, ev.Candidates, ev.Survivors, ev.Elapsed.Round(1e6), ev.Rows)
	case safe.EventIterationEnd:
		fmt.Fprintf(os.Stderr, "round %d done: %d features selected in %v\n",
			ev.Round, ev.Survivors, ev.Elapsed.Round(1e6))
	}
}

// chunkRowsForShards sizes chunks so the file splits into the requested
// number of partitions, from one cheap pass counting data records — no
// per-cell float decoding, so the pre-pass costs a fraction of a real pass.
func chunkRowsForShards(path string, shards int) (int, error) {
	rows, err := countCSVRows(path)
	if err != nil {
		return 0, err
	}
	if rows == 0 {
		return 0, errors.New("safe: training CSV has no rows")
	}
	return (rows + shards - 1) / shards, nil
}

func countCSVRows(path string) (int, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	cr := csv.NewReader(fh)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil { // header
		return 0, fmt.Errorf("safe: read csv header: %w", err)
	}
	rows := 0
	for {
		_, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		rows++
	}
	return rows, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "safe:", err)
	os.Exit(1)
}

// isColstorePath reports whether the training file is a colstore binary
// columnar file, selected by extension like every other format here.
func isColstorePath(path string) bool {
	return strings.HasSuffix(path, ".col") || strings.HasSuffix(path, ".colstore")
}
