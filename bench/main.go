// Command bench is the repository's benchmark: six workloads across the
// three fit engines and the serving layer, end-to-end metrics from untraced
// runs and per-layer metrics from a traced run. BENCHMARK.json at the
// repository root is its contract; README.md explains every metric.
//
//	go run ./bench -workload shard-colstore -seed 11 -seconds 18 -trace 0
//	go run ./bench -workload dist-tcp2 -trace 1
//	go run ./bench -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends and -compare reads: the result line plus
// where it came from.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	resultLine
}

// maxProcs caps GOMAXPROCS: the workloads are sized for a small box, and a
// fixed cap keeps a 64-core machine's numbers comparable with a laptop's.
const maxProcs = 4

func main() {
	if job := os.Getenv(childEnv); job != "" {
		childMain(job)
	}
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 11, "seed of the row order and the request mix; the only randomness")
		seconds = flag.Float64("seconds", 18, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke-test shape: 2k rows, one fit, 1 s serve phases")
		out     = flag.String("out", "", "append the result, with its provenance, to this JSON-lines file")
		scratch = flag.String("scratch", ".bench_scratch", "directory for run directories and span files")
		list    = flag.Bool("list", false, "list the workloads and exit")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare A B")
	)
	flag.Parse()
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.jsonl B.jsonl")
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Sprintf("unknown workload %q; -list names them", *name))
	}
	if *quick {
		w = w.quick()
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	o := runOptions{W: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, Procs: procs, Scratch: *scratch}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := runGuarded(ctx, cancel, o)
	if err != nil {
		fatal(err)
	}
	rec := record{
		Workload: w.Name, Seed: *seed, Trace: o.Trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		resultLine: res.line(o.Trace),
	}
	printHuman(rec, res)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "bench:", v)
	os.Exit(2)
}

// run executes one workload in a fresh run directory under o.Scratch and
// removes the directory whatever happens.
func run(ctx context.Context, o runOptions, onDir func(string)) (*outcome, error) {
	if err := os.MkdirAll(o.Scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.Scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if onDir != nil {
		onDir(dir)
	}
	switch {
	case o.W.Eng == engineServe:
		return runServe(ctx, o, dir)
	case o.Trace:
		return runFitTraced(ctx, o, dir)
	default:
		return runFit(ctx, o, dir)
	}
}

// runGuarded is run with SIGINT/SIGTERM handling: children are killed
// through ctx (and exit by themselves when our end of their stdin closes),
// the run directory is removed, and the process exits 130.
func runGuarded(ctx context.Context, cancel context.CancelFunc, o runOptions) (*outcome, error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	dirCh := make(chan string, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			cancel()
			select {
			case dir := <-dirCh:
				os.RemoveAll(dir)
			default:
			}
			os.Exit(130)
		case <-done:
		}
	}()
	return run(ctx, o, func(dir string) { dirCh <- dir })
}

// line renders the outcome as the contract's result object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (o *outcome) line(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	l := resultLine{Attempted: o.Attempted, Failed: o.Failed, Metrics: report(defs, o.Values)}
	l.Correct = o.Failed == 0 && o.Attempted > 0
	for _, v := range l.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			l.Correct = false
		}
	}
	return l
}

func printHuman(rec record, res *outcome) {
	fmt.Printf("workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	for _, n := range res.Notes {
		fmt.Println(" ", n)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
