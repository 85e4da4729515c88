package stats

import (
	"math"
	"math/bits"
)

// TargetCode is a regression target encoded once as centred fixed-point
// integers, so that every sum the regression criteria (η², the variance gain
// ratio) take of it is an integer sum: exact, and the same in any order and
// partitioning — the order-free reproducible summation of Demmel & Nguyen
// ("Fast Reproducible Floating-Point Summation", ARITH 2013). Float sums of y
// and y² carry their order in their low bits, and Σy² − (Σy)²/n cancels
// catastrophically once the target's offset dwarfs its spread.
//
// Rows are centred on Mean, the target's mean summed in row order. A row's
// code is q = round((y − Mean)·2^Scale), its square code Square(q) =
// round((q·2^shift)²): scaled before the square, so nothing overflows
// whatever the target's magnitude. With n rows of bit length L, Room is
// 62 − L: the largest |q| is 2^min(52, Room) (exact in a float64) and the
// largest square code 2^Room, so n codes of either kind sum within an int64.
// Scaling the target by a power of two moves Scale and no code.
type TargetCode struct {
	Mean        float64
	Scale, Room int
	// Q and Q2 are the code and square code of every row of the target the
	// code was built from (Encode); nil in a code that carries only its
	// parameters.
	Q, Q2 []int64
}

// Encode builds the code of target y, rows in order, reusing t's backings.
func (t *TargetCode) Encode(y []float64) {
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
	t.Q, t.Q2 = grown(t.Q, len(y)), grown(t.Q2, len(y))
	for i, v := range y {
		t.Q[i] = t.Code(v)
		t.Q2[i] = t.Square(t.Q[i])
	}
}

// bits is the exponent of the largest |q|.
func (t *TargetCode) bits() int { return min(52, t.Room) }

// shift scales a code before it is squared.
func (t *TargetCode) shift() int { return t.Room/2 - t.bits() }

// Max is the largest |q| a row of the target has.
func (t *TargetCode) Max() int64 { return 1 << t.bits() }

// Code is the code of one target value.
func (t *TargetCode) Code(y float64) int64 {
	return int64(math.Round(math.Ldexp(y-t.Mean, t.Scale)))
}

// Square is the square code of a code.
func (t *TargetCode) Square(q int64) int64 {
	x := math.Ldexp(float64(q), t.shift())
	return int64(math.Round(x * x))
}

// Tally is the width of a regression tally: a bin's rows, Σq and ΣSquare(q),
// three counters a bin (bins[3b], bins[3b+1], bins[3b+2]).
const Tally = 3

// Add adds a row of code q to the tally of one bin.
func (t *TargetCode) Add(bin []int64, q int64) {
	bin[0]++
	bin[1] += q
	bin[2] += t.Square(q)
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
