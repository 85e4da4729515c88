package core

// Sanitize replaces NaN/Inf with 0 in place — the post-generation clamp the
// fit applies to every generated candidate column, exported for the kernels
// that recompute those columns chunk by chunk (internal/shard).
func Sanitize(col []float64) { sanitize(col) }
