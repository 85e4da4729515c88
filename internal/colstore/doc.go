// Package colstore is the binary columnar chunk format behind the sharded
// out-of-core fit: a versioned on-disk layout of per-column typed blocks
// (raw little-endian float64, dictionary-encoded strings with null bitmaps)
// grouped into row groups, each block carrying row/NaN counts, min/max
// statistics and a CRC, with a footer holding the schema and a block index
// so readers seek straight to any block without scanning.
//
// A buffered Writer produces files; two readers consume them as
// frame.ChunkSource streams: Open decodes blocks through buffered reads
// (portable, unstable chunks), OpenMmap maps the file and serves float
// columns zero-copy as []float64 views (stable chunks, little-endian hosts).
// Both implement frame.SkippableSource — the footer's block statistics let
// the multi-pass fit engine skip row groups a pass provably does not need.
// Spill composes the writer and the readers into a decode-once wrapper for
// any other chunk source (OpenCSV for a CSV file): the first pass is teed to
// a scratch file, later passes read its mapping.
// See docs/storage.md for the byte-level layout and compatibility policy.
package colstore
