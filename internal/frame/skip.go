package frame

// ColStats summarises one column of one chunk for stat-based pass planning:
// row and NaN counts plus the min/max over the chunk's non-NaN values. Known
// reports whether Min/Max are trustworthy bounds — sources set it false for
// columns whose stats are unavailable or not defined over the values the
// chunk serves (then only the counts may be used). For an all-NaN (or empty)
// chunk column Min/Max are NaN and Known may still be true: the counts alone
// fully describe such a block.
type ColStats struct {
	Rows     int
	NaNs     int
	Min, Max float64
	Known    bool
}

// SkippableSource is a ChunkSource that knows its chunk boundaries up front
// and carries per-chunk column statistics, so a multi-pass consumer can plan
// partial passes: chunks proven irrelevant by their stats are skipped — not
// read, not decoded — on the next pass. The colstore readers implement it
// (block stats come straight from the file footer); FrameChunks does not,
// in-memory passes being too cheap to plan. The sharded fit plans no skip
// (it cuts every column on passes that read every chunk); the repository
// benchmark's trace wrapper forwards the interface.
//
// ChunkStats(i) describes chunk i's feature columns in Names() order; a nil
// result means no stats are available for that chunk (it can then never be
// skipped). SetSkip installs the pass plan: chunks at true indices are
// omitted from subsequent passes, with surviving chunks keeping their full-
// pass Index and Start. SetSkip(nil) restores full passes. SetSkip must not
// be called while a pass is in flight.
type SkippableSource interface {
	ChunkSource
	NumChunks() int
	ChunkStats(i int) []ColStats
	SetSkip(skip []bool)
}
