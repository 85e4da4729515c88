package sketch

import (
	"math"

	"repro/internal/stats"
)

// Gram is a mergeable pairwise co-moment accumulator over a fixed set of k
// columns, tracking for every unordered pair (i < j) the sums the Pearson
// redundancy filter needs, restricted to rows where both values are non-NaN:
//
//	sxy = Σ xᵢyᵢ,  sx = Σ xᵢ,  sy = Σ yᵢ,  cnt = #rows (both valid)
//
// Sums are plain additions, so Merge is associative and order-invariant up
// to floating-point rounding. Dot then reproduces the standardised dot
// product core's pearsonScan computes from full columns: with NaNs
// standardised to 0 (the mean), only jointly valid rows contribute; its means
// and deviations come from Moments over the same rows. A NaN-free pair's dot
// product is stats.Dot, the kernel core's Pearson runs on too.
type Gram struct {
	k    int
	rows int64
	sxy  []float64
	sx   []float64
	sy   []float64
	cnt  []int64
}

// NewGram creates an accumulator over k columns.
func NewGram(k int) *Gram {
	pairs := k * (k - 1) / 2
	return &Gram{
		k:   k,
		sxy: make([]float64, pairs),
		sx:  make([]float64, pairs),
		sy:  make([]float64, pairs),
		cnt: make([]int64, pairs),
	}
}

// pairIndex flattens (i < j) into the lower-triangle order (1,0), (2,0),
// (2,1), (3,0), ...
func (g *Gram) pairIndex(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return j*(j-1)/2 + i
}

// K returns the number of columns the accumulator tracks.
func (g *Gram) K() int { return g.k }

// Reset zeroes the accumulator for reuse over the same k columns.
func (g *Gram) Reset() {
	g.rows = 0
	for p := range g.sxy {
		g.sxy[p] = 0
		g.sx[p] = 0
		g.sy[p] = 0
		g.cnt[p] = 0
	}
}

// Rows returns the total rows observed.
func (g *Gram) Rows() int64 { return g.rows }

// ChunkPrep holds per-column chunk preparation (sums and NaN presence)
// shared by every pair-range of one chunk.
type ChunkPrep struct {
	Sums   []float64
	HasNaN []bool
}

// PrepChunk computes the per-column sums and NaN flags of a chunk once, for
// use with AddPrepared across parallel pair-ranges.
func PrepChunk(cols [][]float64) ChunkPrep {
	p := ChunkPrep{Sums: make([]float64, len(cols)), HasNaN: make([]bool, len(cols))}
	for j, c := range cols {
		var s float64
		for _, v := range c {
			if math.IsNaN(v) {
				p.HasNaN[j] = true
				continue
			}
			s += v
		}
		p.Sums[j] = s
	}
	return p
}

// AddChunk accumulates one row-chunk: cols must hold exactly k equal-length
// columns. Columns without NaNs in the chunk take a fast dot-product path.
func (g *Gram) AddChunk(cols [][]float64) {
	if len(cols) != g.k {
		panic("sketch: gram chunk column count mismatch")
	}
	if g.k == 0 {
		return
	}
	g.AddRows(len(cols[0]))
	g.AddPrepared(cols, PrepChunk(cols), 1, g.k)
}

// AddPrepared accumulates the pairs (i, j) for j in [jlo, jhi) against all
// i < j — the unit of work a caller parallelising over pair rows uses. Every
// pair belongs to exactly one j-row, so disjoint ranges touch disjoint
// state. The caller must add each chunk's row count once via AddRows.
func (g *Gram) AddPrepared(cols [][]float64, prep ChunkPrep, jlo, jhi int) {
	if g.k == 0 || jhi <= jlo {
		return
	}
	n := len(cols[0])
	for j := jlo; j < jhi; j++ {
		if j == 0 {
			continue
		}
		g.addColumnPairs(cols, prep.Sums, prep.HasNaN, j, n)
	}
}

// AddRows records a chunk's row count (used with AddPrepared, where no
// single range should count the chunk).
func (g *Gram) AddRows(n int) { g.rows += int64(n) }

func (g *Gram) addColumnPairs(cols [][]float64, sums []float64, hasNaN []bool, j, n int) {
	y := cols[j]
	base := j * (j - 1) / 2
	for i := 0; i < j; i++ {
		x := cols[i]
		p := base + i
		if !hasNaN[i] && !hasNaN[j] {
			g.sxy[p] += stats.Dot(x[:n], y)
			g.sx[p] += sums[i]
			g.sy[p] += sums[j]
			g.cnt[p] += int64(n)
			continue
		}
		var dot, sx, sy float64
		var cnt int64
		for r := 0; r < n; r++ {
			xv, yv := x[r], y[r]
			if math.IsNaN(xv) || math.IsNaN(yv) {
				continue
			}
			dot += xv * yv
			sx += xv
			sy += yv
			cnt++
		}
		g.sxy[p] += dot
		g.sx[p] += sx
		g.sy[p] += sy
		g.cnt[p] += cnt
	}
}

// Merge folds another accumulator (over the same k columns) into g.
func (g *Gram) Merge(o *Gram) {
	if o.k != g.k {
		panic("sketch: merge grams of different widths")
	}
	g.rows += o.rows
	for p := range g.sxy {
		g.sxy[p] += o.sxy[p]
		g.sx[p] += o.sx[p]
		g.sy[p] += o.sy[p]
		g.cnt[p] += o.cnt[p]
	}
}

// Dot returns the dot product of the standardised columns i and j given
// their marginal means and standard deviations (from Moments over the same
// data): Σ over jointly valid rows of (xᵢ−μᵢ)(xⱼ−μⱼ)/(σᵢσⱼ). The caller
// compares |Dot| against θ·Rows exactly as core's pearsonScan does.
func (g *Gram) Dot(i, j int, meanI, stdI, meanJ, stdJ float64) float64 {
	if stdI == 0 || stdJ == 0 {
		return 0
	}
	p := g.pairIndex(i, j)
	if i > j {
		// sx belongs to the lower index, sy to the higher; the formula is
		// symmetric so only the pairing of mean-to-sum matters.
		meanI, meanJ = meanJ, meanI
		stdI, stdJ = stdJ, stdI
	}
	num := g.sxy[p] - meanJ*g.sx[p] - meanI*g.sy[p] + float64(g.cnt[p])*meanI*meanJ
	return num / (stdI * stdJ)
}
