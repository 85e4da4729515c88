package main

import (
	"errors"
	"io"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/operators"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// Kernel probes: direct timed calls into each layer's exported functions on
// the workload's own columns. A workload runs the probes of the layers its
// engine uses and reports 0 for the others, so a non-zero value also says
// "this layer is on this workload's path".

// probeReps is how often a probe repeats; the median is reported.
const probeReps = 5

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// timeMedian returns the median wall seconds of reps calls of fn.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// fitProbes fills m with the kernel probes of a fit workload.
func fitProbes(w workload, s *fitSetup, m map[string]float64) error {
	train := s.Data.Train
	cols, labels := frameCols(train), train.Label
	norm, err := core.NormalizeConfig(w.coreConfig())
	if err != nil {
		return err
	}
	if err := probeOperators(cols, m); err != nil {
		return err
	}
	if w.Eng == engineMem {
		m["gbdt.train_s"] = timeMedian(3, func() {
			_, err = gbdt.Train(cols, labels, train.Names(), norm.Miner)
		})
		if err != nil {
			return err
		}
		probeStats(w, cols, labels, norm.IVBins, m)
		return nil
	}
	pb := prebin(cols, norm.Miner.MaxBins)
	m["gbdt.train_binned_s"] = timeMedian(3, func() {
		_, err = gbdt.TrainBinned(pb, labels, train.Names(), norm.Miner)
	})
	if err != nil {
		return err
	}
	probeSketch(w, cols, labels, norm.IVBins, m)
	if w.Eng == engineDist {
		if err := probeSketchWire(cols, m); err != nil {
			return err
		}
	}
	if w.CSV {
		secs, err := drain(func() (frame.ChunkSource, func() error, error) {
			src, err := frame.OpenCSVChunks(s.Files.Train, "label", w.chunkRows())
			if err != nil {
				return nil, nil, err
			}
			return src, src.Close, nil
		})
		if err != nil {
			return err
		}
		m["frame.csv_parse_mb_per_s"] = fileMB(s.Files.Train) / secs
		return nil
	}
	for name, open := range map[string]func() (colstore.Source, error){
		"colstore.scan_mb_per_s.mmap":   func() (colstore.Source, error) { return colstore.OpenMmap(s.Files.Train) },
		"colstore.scan_mb_per_s.stream": func() (colstore.Source, error) { return colstore.Open(s.Files.Train) },
	} {
		secs, err := drain(func() (frame.ChunkSource, func() error, error) {
			src, err := open()
			if err != nil {
				return nil, nil, err
			}
			return src, src.Close, nil
		})
		if err != nil {
			return err
		}
		m[name] = fileMB(s.Files.Train) / secs
	}
	return nil
}

// drain times one full pass over a freshly opened source, touching every
// value so a zero-copy reader pays for the pages it maps.
func drain(open func() (frame.ChunkSource, func() error, error)) (float64, error) {
	var firstErr error
	var sink float64
	secs := timeMedian(probeReps, func() {
		src, closeSrc, err := open()
		if err != nil {
			firstErr = err
			return
		}
		defer closeSrc() //nolint:errcheck // read-only source teardown
		for {
			c, err := src.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				firstErr = err
				return
			}
			for _, col := range c.Cols {
				for _, v := range col {
					sink += v
				}
			}
		}
	})
	probeSink = sink
	return secs, firstErr
}

// probeSink keeps probe results alive so the compiler cannot drop the work.
var probeSink float64

func probeOperators(cols [][]float64, m map[string]float64) error {
	reg := operators.NewRegistry()
	n := len(cols[0])
	dst := make([]float64, n)
	in := cols[:2]
	var perRow []float64
	for _, name := range []string{"add", "mul", "div"} {
		op, err := reg.Get(name)
		if err != nil {
			return err
		}
		ap, err := op.Fit(in)
		if err != nil {
			return err
		}
		secs := timeMedian(probeReps, func() { operators.TransformColumn(ap, in, dst) })
		perRow = append(perRow, secs*1e9/float64(n))
	}
	m["operators.apply_ns_per_row"] = (perRow[0] + perRow[1] + perRow[2]) / 3
	probeSink = dst[0]
	return nil
}

// probeStats times the relevance criterion of the workload's task and the
// redundancy criterion, per row of one column.
func probeStats(w workload, cols [][]float64, labels []float64, bins int, m map[string]float64) {
	n := float64(len(labels))
	var iv stats.IVScratch
	var crit stats.CritScratch
	task := w.task()
	m["stats.iv_ns_per_row"] = timeMedian(probeReps, func() {
		switch task.Kind {
		case core.TaskMulticlass:
			probeSink = crit.MulticlassIV(cols[0], labels, task.Classes, bins)
		case core.TaskRegression:
			probeSink = crit.CorrelationRatio(cols[0], labels, bins)
		default:
			probeSink = iv.InformationValue(cols[0], labels, bins)
		}
	}) * 1e9 / n
	m["stats.pearson_ns_per_row"] = timeMedian(probeReps, func() {
		probeSink = stats.Pearson(cols[0], cols[1])
	}) * 1e9 / n
}

// prebin quantises columns the way the sharded engine's resident matrices
// are built: sketch cuts, then 1+bin codes with 0 for missing.
func prebin(cols [][]float64, maxBins int) *gbdt.Prebinned {
	pb := &gbdt.Prebinned{Codes: make([][]uint8, len(cols)), Cuts: make([][]float64, len(cols))}
	var ix stats.CutIndexer
	for j, col := range cols {
		q := sketch.NewQuantile(0)
		q.AddAll(col)
		cuts := q.BinnerCuts(maxBins)
		codes := make([]uint8, len(col))
		ix.Reset(cuts)
		for i, v := range col {
			if v == v {
				codes[i] = uint8(1 + ix.Find(v))
			}
		}
		pb.Codes[j], pb.Cuts[j] = codes, cuts
	}
	return pb
}

// gramCols is the column count of the Gram probe: the order of a round's
// Pearson candidate set at these shapes.
const gramCols = 16

// probeSketch times the sharded engine's per-chunk kernels on one
// partition-sized chunk of the workload's first column.
func probeSketch(w workload, cols [][]float64, labels []float64, bins int, m map[string]float64) {
	rows := w.chunkRows()
	if rows > len(labels) {
		rows = len(labels)
	}
	chunk, chunkLabels := cols[0][:rows], labels[:rows]
	n := float64(rows)
	var scratch sketch.SortScratch

	ingest := func(vals []float64) *sketch.Quantile {
		q := sketch.NewQuantile(0)
		sorted, nan := sketch.SortNonNaN(vals, &scratch)
		q.AddSortedScratch(sorted, nan, &scratch)
		return q
	}
	m["sketch.ingest_ns_per_row"] = timeMedian(probeReps, func() { ingest(chunk) }) * 1e9 / n

	full := cols[0]
	partials := make([]*sketch.Quantile, parts)
	for p := range partials {
		lo, hi := p*len(full)/parts, (p+1)*len(full)/parts
		partials[p] = ingest(full[lo:hi])
	}
	var merged *sketch.Quantile
	m["sketch.merge_us"] = timeMedian(probeReps, func() {
		merged = sketch.NewQuantile(0)
		for _, p := range partials {
			merged.Merge(p)
		}
	}) * 1e6

	ranks := sketch.CutRanks(int64(len(full)), bins)
	m["sketch.refine_ns_per_row"] = timeMedian(probeReps, func() {
		sketch.NewRefiner(merged, ranks).AddChunk(chunk)
	}) * 1e9 / n

	cuts := merged.Cuts(bins)
	task := w.task()
	m["sketch.hist_ns_per_row"] = timeMedian(probeReps, func() {
		switch task.Kind {
		case core.TaskMulticlass:
			sketch.NewClassHist(cuts, task.Classes).AddCol(chunk, chunkLabels)
		case core.TaskRegression:
			sketch.NewMomentHist(cuts).AddCol(chunk, chunkLabels)
		default:
			sketch.NewLabelHist(cuts).AddCol(chunk, chunkLabels)
		}
	}) * 1e9 / n

	k := gramCols
	if k > len(cols) {
		k = len(cols)
	}
	gcols := make([][]float64, k)
	for j := range gcols {
		gcols[j] = cols[j][:rows]
	}
	m["sketch.gram_ns_per_row"] = timeMedian(probeReps, func() {
		sketch.NewGram(k).AddChunk(gcols)
	}) * 1e9 / n
}

// probeSketchWire round-trips the two sketch kinds that dominate a
// distributed fit's partial payloads through their wire codecs.
func probeSketchWire(cols [][]float64, m map[string]float64) error {
	k := gramCols
	if k > len(cols) {
		k = len(cols)
	}
	g := sketch.NewGram(k)
	g.AddChunk(cols[:k])
	qs := make([]*sketch.Quantile, len(cols))
	for j, col := range cols {
		qs[j] = sketch.NewQuantile(0)
		qs[j].AddAll(col)
	}
	var buf []byte
	encode := func() {
		buf = buf[:0]
		for _, q := range qs {
			buf = sketch.AppendQuantile(buf, q)
		}
		buf = sketch.AppendGram(buf, g)
	}
	encS := timeMedian(probeReps, encode)
	var derr error
	decS := timeMedian(probeReps, func() {
		rest := buf
		for range qs {
			if _, rest, derr = sketch.DecodeQuantile(rest); derr != nil {
				return
			}
		}
		_, _, derr = sketch.DecodeGram(rest)
	})
	if derr != nil {
		return derr
	}
	mb := float64(len(buf)) / (1 << 20)
	m["sketch.wire_encode_mb_per_s"] = mb / encS
	m["sketch.wire_decode_mb_per_s"] = mb / decS
	return nil
}
