package shard

import "repro/internal/frame"

// planRefineSkip plans a partial refinement pass from the source's per-block
// statistics, when it has any (frame.SkippableSource — the colstore
// readers). A chunk is skippable only when every open column's block proves,
// via Refiner.SkipBucket, that all its non-NaN values land in one
// below-bracket bucket and touch no gather bracket; the chunk's entire
// effect on each refiner is then the exact integer fold
// AddOutside(bucket, rows−NaNs), so the partial pass resolves the same
// order statistics bit-for-bit as a full one.
//
// The plan needs the source the in-process executor streams, so only a fit
// running on that executor plans one. When any chunk is skippable the plan is
// installed on the source (SetSkip)
// and accounted for (Stats.BlocksSkipped/RowsSkipped, f.passExpect for the
// pass row validation); the returned cleanup restores full passes and must
// run once the pass is done. done reports that every chunk was skippable —
// the refiners are fully resolved from statistics and no pass need run.
func (f *fitter) planRefineSkip(le *localExec, open []openRef) (cleanup func(), done bool) {
	ss, ok := le.base.(frame.SkippableSource)
	if !ok || f.n == 0 || len(open) == 0 {
		return nil, false
	}
	nch := ss.NumChunks()
	if nch <= 0 {
		return nil, false
	}
	type contrib struct {
		open   int
		bucket int
		n      int64
	}
	skip := make([]bool, nch)
	var contribs []contrib
	scratch := make([]contrib, 0, len(open))
	skipped, skippedRows := 0, 0
	for ci := 0; ci < nch; ci++ {
		st := ss.ChunkStats(ci)
		if len(st) == 0 {
			continue // no stats for this chunk: it must stream
		}
		scratch = scratch[:0]
		skippable := true
		for oi, o := range open {
			s := st[o.col]
			nn := int64(s.Rows - s.NaNs)
			if nn == 0 {
				continue // all missing: contributes nothing either way
			}
			if !s.Known {
				skippable = false
				break
			}
			bucket, ok := o.ref.SkipBucket(s.Min, s.Max)
			if !ok {
				skippable = false
				break
			}
			scratch = append(scratch, contrib{open: oi, bucket: bucket, n: nn})
		}
		if !skippable {
			continue
		}
		skip[ci] = true
		skipped++
		skippedRows += st[0].Rows
		contribs = append(contribs, scratch...)
	}
	if skipped == 0 {
		return nil, false
	}
	for _, c := range contribs {
		open[c.open].ref.AddOutside(c.bucket, c.n)
	}
	f.stats.BlocksSkipped += int64(skipped)
	f.stats.RowsSkipped += int64(skippedRows)
	if skipped == nch {
		// Nothing left to stream: the statistics alone resolved every open
		// bracket's below-count, and no bracket had gatherable values.
		return nil, true
	}
	ss.SetSkip(skip)
	f.passExpect = f.n - skippedRows
	return func() {
		// An aborted pass can leave the prefetcher's reader mid-stream on the
		// base source; stop it (restartable via Reset) before changing the
		// plan under it.
		le.close()
		ss.SetSkip(nil)
		f.passExpect = 0
	}, false
}
