package stats

import (
	"math"
	"math/bits"
	"slices"
)

// TargetCode is a task's target coded once, every row a code that says what
// it adds to the counters of the bin it lies in. Every criterion and
// partition score of every engine counts these codes, and reads the counters
// back through the code's own methods.
//
// A count task (Classes > 0) codes a row as its class id, which adds one to
// counter id of the bin's W: a binary label above 0.5 is class 1 and any
// other class 0; a multiclass label is truncated to its class index. W is
// Classes, or Classes+1 when Encode met a label outside the classes (NaN
// included): that row gets the extra counter, which counts it in its bin's
// rows and is read by no criterion. A fit validates its labels first, so
// both engines keep W = Classes.
//
// A regression target (Classes == 0, the zero value) is coded as centred
// fixed-point integers, so that every sum the regression criteria (η², the
// variance gain ratio) take of it is an integer sum: exact, and the same in
// any order and partitioning — the order-free reproducible summation of
// Demmel & Nguyen ("Fast Reproducible Floating-Point Summation", ARITH 2013).
// Float sums of y and y² carry their order in their low bits, and Σy² −
// (Σy)²/n cancels catastrophically once the target's offset dwarfs its
// spread. Rows are centred on Mean, the target's mean summed in row order. A
// row's code is q = round((y − Mean)·2^Scale), its square code Square(q) =
// round((q·2^shift)²): scaled before the square, so nothing overflows
// whatever the target's magnitude. With n rows of bit length L, Room is
// 62 − L: the largest |q| is 2^min(52, Room) (exact in a float64) and the
// largest square code 2^Room, so n codes of either kind sum within an int64.
// Scaling the target by a power of two moves Scale and no code. A regression
// row adds (1, q, Square(q)) to its bin's W = Tally counters.
type TargetCode struct {
	Classes int  // a count task's class count (2 for binary); 0 for regression
	Binary  bool // a count task that thresholds its labels at 0.5
	W       int  // the counters a bin has

	Mean        float64
	Scale, Room int
	// Q holds the code of every row of the target the code was built from
	// (Encode, Recode) and, for regression, Q2 their square codes; nil in a
	// code that carries only its parameters.
	Q, Q2 []int64
}

// Tally is the width of a regression tally: a bin's rows, Σq and ΣSquare(q),
// three counters a bin (bins[3b], bins[3b+1], bins[3b+2]).
const Tally = 3

// Encode builds the code of target y, rows in order, reusing t's backings:
// for regression it first centres and scales the code on y.
func (t *TargetCode) Encode(y []float64) {
	t.W = t.Classes
	if t.Classes == 0 {
		t.W = Tally
		var sum float64
		for _, v := range y {
			sum += v
		}
		t.Mean = sum / float64(max(len(y), 1))
		var spread float64
		for _, v := range y {
			spread = max(spread, math.Abs(v-t.Mean))
		}
		_, e := math.Frexp(spread) // spread < 2^e
		t.Room = 62 - bits.Len(uint(len(y)))
		t.Scale = t.bits() - e
	}
	t.Recode(y)
	if t.Classes > 0 && !t.Binary && slices.Contains(t.Q, int64(t.Classes)) {
		t.W = t.Classes + 1
	}
}

// Recode codes the rows of y with t's parameters, as Encode does once it has
// set them, reusing t's backings: a binary label above 0.5 is class 1 and
// any other class 0; a multiclass label is truncated to its class index, or
// coded Classes outside the classes; a regression value gets its Code and
// Square. Each kind is its own loop with no call per row, and the binary
// one compiles to a flag set: no branch for a 50/50 label column to
// mispredict on every row.
func (t *TargetCode) Recode(y []float64) {
	t.Q = grown(t.Q, len(y))
	switch {
	case t.Binary:
		for i, v := range y {
			var q int64
			if v > 0.5 {
				q = 1
			}
			t.Q[i] = q
		}
	case t.Classes > 0:
		// The range test is on the float: an out-of-range float→int
		// conversion is implementation-defined.
		k := int64(t.Classes)
		for i, v := range y {
			q := k
			if v > -1 && v < float64(k) {
				q = int64(v)
			}
			t.Q[i] = q
		}
	default:
		t.Q2 = grown(t.Q2, len(y))
		for i, v := range y {
			t.Q[i] = t.Code(v)
			t.Q2[i] = t.Square(t.Q[i])
		}
	}
}

// Code is the code of one regression target value.
func (t *TargetCode) Code(y float64) int64 {
	return int64(math.Round(math.Ldexp(y-t.Mean, t.Scale)))
}

// bits is the exponent of the largest |q|.
func (t *TargetCode) bits() int { return min(52, t.Room) }

// shift scales a code before it is squared.
func (t *TargetCode) shift() int { return t.Room/2 - t.bits() }

// Max is the largest |q| a row of a regression target has.
func (t *TargetCode) Max() int64 { return 1 << t.bits() }

// Square is the square code of a regression code.
func (t *TargetCode) Square(q int64) int64 {
	x := math.Ldexp(float64(q), t.shift())
	return int64(math.Round(x * x))
}

// AddRow adds row i of the coded rows to one bin's counters. A nil code
// counts rows: one counter a bin, to which every row adds one.
func (t *TargetCode) AddRow(bin []int64, i int) {
	switch {
	case t == nil:
		bin[0]++
	case t.Classes > 0:
		bin[t.Q[i]]++
	default:
		bin[0]++
		bin[1] += t.Q[i]
		bin[2] += t.Q2[i]
	}
}

// Add adds a row of code q — which may have come from elsewhere, and is
// Valid — to one bin's counters.
func (t *TargetCode) Add(bin []int64, q int64) {
	if t.Classes > 0 {
		bin[q]++
		return
	}
	bin[0]++
	bin[1] += q
	bin[2] += t.Square(q)
}

// width is the counters a bin has (a nil code's: one).
func (t *TargetCode) width() int {
	if t == nil {
		return 1
	}
	return t.W
}

// Rows is how many rows one bin's counters count (a nil code's: its one
// counter).
func (t *TargetCode) Rows(bin []int64) (n int64) {
	if t == nil || t.Classes == 0 {
		return bin[0]
	}
	for _, v := range bin {
		n += v
	}
	return n
}

// Valid reports whether a code that may be a peer's is one this code's rows
// can have: a class id below W, or a regression code within ±Max.
func (t *TargetCode) Valid(q int64) bool {
	if t.Classes > 0 {
		return q >= 0 && q < int64(t.W)
	}
	return q >= -t.Max() && q <= t.Max()
}

// ValidSpan reports whether one bin's counters, which may be a peer's, can
// count at most rows rows: no negative count and, for a count task, at most
// rows of them in all; for regression, sums that that many codes can reach.
// So no sum of such counters over partitions of rows rows in all overflows.
func (t *TargetCode) ValidSpan(bin []int64, rows int64) bool {
	if t.Classes > 0 {
		var n int64
		for _, v := range bin {
			if v < 0 || v > rows-n {
				return false
			}
			n += v
		}
		return true
	}
	n, m := bin[0], t.Max()
	return n >= 0 && n <= rows && bin[1] >= -n*m && bin[1] <= n*m && bin[2] >= 0 && bin[2] <= n*t.Square(m)
}

// Criterion is the task's relevance criterion over per-bin counters
// (bins[b·W:]): the binary Information Value (Eq. 6), the mean one-vs-rest
// IV over the classes for multiclass, η² for regression; 0 over one bin.
// Both engines tally the same integers, so the value is the same whatever
// the row order or partitioning.
func (t *TargetCode) Criterion(bins []int64) float64 {
	if len(bins) <= t.W {
		return 0
	}
	if t.Classes == 0 {
		return t.CorrelationRatio(bins)
	}
	if t.Binary {
		return t.oneVsRest(bins, 1)
	}
	var sum float64
	for c := 0; c < t.Classes; c++ {
		sum += t.oneVsRest(bins, c)
	}
	return sum / float64(t.Classes)
}

// oneVsRest is the Information Value of class c against the other classes,
// with 0.5 Laplace smoothing (IVFromCounts). A binary code's other class is
// counter 0; a multiclass bin's other-class rows are its class counters' sum
// less class c's, integers, so no per-bin buffer is needed. Degenerate
// classes (empty, or covering every row) score 0.
func (t *TargetCode) oneVsRest(bins []int64, c int) float64 {
	pos := func(b int) float64 { return float64(bins[b*t.W+c]) }
	neg := func(b int) float64 {
		if t.Binary {
			return float64(bins[b*t.W])
		}
		var n int64
		for _, v := range bins[b*t.W : b*t.W+t.Classes] {
			n += v
		}
		return float64(n - bins[b*t.W+c])
	}
	nb := len(bins) / t.W
	var np, nn float64
	for b := 0; b < nb; b++ {
		np += pos(b)
		nn += neg(b)
	}
	if np == 0 || nn == 0 {
		return 0
	}
	numBins := float64(nb)
	iv := 0.0
	for b := 0; b < nb; b++ {
		p, n := pos(b), neg(b)
		if p+n == 0 {
			continue
		}
		dp := (p + 0.5) / (np + 0.5*numBins)
		dn := (n + 0.5) / (nn + 0.5*numBins)
		iv += (dp - dn) * math.Log(dp/dn)
	}
	return iv
}

// GainRatio is the task's information gain ratio of a partition over
// per-cell counters (cells[p·W:]), Algorithm 2's combination score: the
// binary gain ratio (GainRatio), its K-class generalisation
// (GainRatioClasses), or the regression variance-reduction ratio
// (VarGainRatio) — the same arithmetic, bit for bit.
func (t *TargetCode) GainRatio(cells []int64) float64 {
	if t.Classes == 0 {
		return t.VarGainRatio(cells)
	}
	// rows is a cell's rows over the classes.
	rows := func(p int) float64 {
		var n int64
		for _, v := range cells[p : p+t.Classes] {
			n += v
		}
		return float64(n)
	}
	var n float64
	for p := 0; p < len(cells); p += t.W {
		n += rows(p)
	}
	if n == 0 {
		return 0
	}
	split := 0.0
	for p := 0; p < len(cells); p += t.W {
		if r := rows(p); r > 0 {
			f := r / n
			split -= f * math.Log(f)
		}
	}
	if split <= 0 {
		return 0
	}
	var base, cond float64
	if t.Binary {
		var pos int64
		for p := 1; p < len(cells); p += 2 {
			pos += cells[p]
		}
		base = entropyFromCounts(int(pos), int(n)-int(pos))
		for p := 0; p < len(cells); p += 2 {
			if r := rows(p); r > 0 {
				cond += r / n * entropyFromCounts(int(cells[p+1]), int(cells[p]))
			}
		}
	} else {
		for c := 0; c < t.Classes; c++ {
			var tot float64
			for p := c; p < len(cells); p += t.W {
				tot += float64(cells[p])
			}
			if tot > 0 {
				base -= tot / n * math.Log(tot/n)
			}
		}
		for p := 0; p < len(cells); p += t.W {
			if r := rows(p); r > 0 {
				cond += r / n * entropyK(cells[p:p+t.Classes], r)
			}
		}
	}
	gain := base - cond
	if gain < 0 {
		gain = 0
	}
	return gain / split
}

// CorrelationRatio folds per-bin tallies into the correlation ratio η² =
// SS_between / SS_total of a one-way ANOVA over the bins: 0 for no relation
// (or a constant target), 1 when the bin determines the target exactly. The
// tallies are integers, so per-partition tallies added up in any order give
// the single-pass value; the arithmetic is in units of q², where the centred
// codes keep the grand term (Σq)²/n near zero.
func (t *TargetCode) CorrelationRatio(bins []int64) float64 {
	var n, sum, sq int64
	for b := 0; b < len(bins); b += Tally {
		n += bins[b]
		sum += bins[b+1]
		sq += bins[b+2]
	}
	if n == 0 {
		return 0
	}
	grand := float64(sum) * float64(sum) / float64(n)
	sst := math.Ldexp(float64(sq), -2*t.shift()) - grand
	if !(sst > 0) {
		return 0
	}
	var ssb float64
	for b := 0; b < len(bins); b += Tally {
		if c := bins[b]; c > 0 {
			s := float64(bins[b+1])
			ssb += s * s / float64(c)
		}
	}
	return min(max((ssb-grand)/sst, 0), 1)
}

// VarGainRatio is the variance-reduction gain ratio of a partition from
// per-cell tallies: the correlation ratio η² over the cells (the regression
// analogue of information gain, likewise in [0,1]) divided by the
// partition's split entropy — so multi-way splits pay the same
// intrinsic-information penalty as in the classification gain ratio.
func (t *TargetCode) VarGainRatio(cells []int64) float64 {
	var n, split float64
	for b := 0; b < len(cells); b += Tally {
		n += float64(cells[b])
	}
	for b := 0; b < len(cells); b += Tally {
		if c := float64(cells[b]); c > 0 {
			split -= c / n * math.Log(c/n)
		}
	}
	if split <= 0 {
		return 0
	}
	return t.CorrelationRatio(cells) / split
}
