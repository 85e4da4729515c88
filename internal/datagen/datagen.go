// Package datagen is the data substrate of this reproduction. The paper
// evaluates on 12 OpenML benchmarks (Table IV) and three private Ant
// Financial fraud datasets (Table VII); neither is available offline, so
// this package generates synthetic datasets with the same shapes
// (#train/#valid/#test/#dim) and — crucially — *planted pairwise feature
// interactions*: the label depends on products, ratios, sums and
// differences of feature pairs in addition to a few single informative
// features, with the remaining columns pure noise. An automatic feature
// engineering method that discovers the right pairs (what SAFE's path
// mining is designed to do) genuinely improves downstream AUC, so the
// relative ordering of methods in Tables III/V/VI/VIII is preserved even
// though absolute AUC values differ from the paper's.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/frame"
)

// InteractionKind enumerates the planted pairwise effects.
type InteractionKind int

// Planted interaction shapes. Product and Ratio are exactly recoverable by
// the paper's {×, ÷} operators; Sum and Diff by {+, −}; XorSign is a
// non-multiplicative interaction recoverable by × through its sign.
const (
	Product InteractionKind = iota
	Ratio
	Sum
	Diff
	XorSign
	numInteractionKinds
)

// TargetKind selects the label type a Spec generates. The planted signal
// (informative singles + pairwise interactions) is shared across kinds; only
// the final label construction differs, so the same feature-engineering
// ground truth underlies every task family.
type TargetKind int

const (
	// TargetBinary draws {0,1} labels from a sigmoid of the planted signal
	// (the default, matching the paper's setting).
	TargetBinary TargetKind = iota
	// TargetMulticlass draws class indices in [0, Classes) from a softmax
	// over per-class affine transforms of the planted signal, so the class
	// depends on the same interactions the binary label does.
	TargetMulticlass
	// TargetRegression emits the noisy planted signal itself as a
	// continuous target.
	TargetRegression
)

// Spec describes one synthetic dataset.
type Spec struct {
	Name  string
	Train int
	Valid int
	Test  int
	Dim   int

	// Target selects the label type (default TargetBinary); Classes is the
	// class count for TargetMulticlass (default 3).
	Target  TargetKind
	Classes int

	// Informative is the number of features with a direct (single-feature)
	// effect on the label.
	Informative int
	// Interactions is the number of planted feature pairs whose combination
	// (but not the individual features) carries signal.
	Interactions int
	// SignalScale multiplies the logit; larger values mean cleaner labels.
	SignalScale float64
	// PosRate is the target positive-class rate (class imbalance); 0 means
	// balanced.
	PosRate float64
	// Seed drives generation.
	Seed int64
}

// Interaction records one planted pair for ground-truth checks in tests and
// the assumption experiment.
type Interaction struct {
	A, B   int
	Kind   InteractionKind
	Weight float64
}

// Dataset is a generated train/valid/test triple plus generation ground
// truth.
type Dataset struct {
	Name         string
	Train        *frame.Frame
	Valid        *frame.Frame
	Test         *frame.Frame
	Informative  []int // indices of single-effect features
	Interactions []Interaction
}

// Generate builds the dataset described by the spec. Feature distributions
// are mixed (normal / uniform / log-normal) to exercise binning and
// normalisation paths.
func Generate(spec Spec) (*Dataset, error) {
	if spec.Train <= 0 || spec.Test <= 0 {
		return nil, fmt.Errorf("datagen: %s: train and test sizes must be positive", spec.Name)
	}
	if spec.Dim < 2 {
		return nil, fmt.Errorf("datagen: %s: need at least 2 features", spec.Name)
	}
	if spec.Informative <= 0 {
		// Cap the absolute number of informative singles: real wide
		// datasets (e.g. gina's 970 pixel features) are mostly noise, and
		// the IV filter's effectiveness — hence the paper's cost profile —
		// depends on that sparsity.
		spec.Informative = clampInt(spec.Dim/10, 1, 16)
	}
	if spec.Informative > spec.Dim {
		spec.Informative = spec.Dim
	}
	if spec.Interactions <= 0 {
		spec.Interactions = clampInt(spec.Dim/8, 2, 20)
	}
	if spec.SignalScale <= 0 {
		spec.SignalScale = 2.0
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.Train + spec.Valid + spec.Test

	// Draw features column-major with per-column distribution.
	cols := make([][]float64, spec.Dim)
	for j := range cols {
		cols[j] = make([]float64, n)
		switch j % 3 {
		case 0: // standard normal
			for i := range cols[j] {
				cols[j][i] = rng.NormFloat64()
			}
		case 1: // uniform [-1, 1]
			for i := range cols[j] {
				cols[j][i] = rng.Float64()*2 - 1
			}
		default: // log-normal, centred
			for i := range cols[j] {
				cols[j][i] = math.Exp(0.5*rng.NormFloat64()) - 1.2
			}
		}
	}

	// Pick informative singles and interaction pairs.
	perm := rng.Perm(spec.Dim)
	informative := append([]int(nil), perm[:spec.Informative]...)
	sort.Ints(informative)

	inters := make([]Interaction, 0, spec.Interactions)
	for k := 0; k < spec.Interactions; k++ {
		a := perm[rng.Intn(len(perm))]
		b := perm[rng.Intn(len(perm))]
		for b == a {
			b = perm[rng.Intn(len(perm))]
		}
		inters = append(inters, Interaction{
			A:      a,
			B:      b,
			Kind:   InteractionKind(rng.Intn(int(numInteractionKinds))),
			Weight: 0.8 + rng.Float64()*1.2,
		})
	}

	// Build the logit.
	logit := make([]float64, n)
	for _, j := range informative {
		w := 0.4 + rng.Float64()*0.6
		if rng.Intn(2) == 0 {
			w = -w
		}
		std := colStd(cols[j])
		for i := range logit {
			logit[i] += w * cols[j][i] / std
		}
	}
	term := make([]float64, n)
	for _, it := range inters {
		a, b := cols[it.A], cols[it.B]
		for i := range term {
			term[i] = interact(it.Kind, a[i], b[i])
		}
		standardize(term)
		w := it.Weight
		if rng.Intn(2) == 0 {
			w = -w
		}
		// Real-world features carry marginal signal alongside their
		// interaction effect (a transaction amount predicts fraud a little
		// by itself and a lot relative to the account's average). A small
		// direct-effect leak on each constituent reproduces that; without
		// it, the IV filter — a marginal-dependence test, in the paper as
		// here — would discard the constituents outright.
		leak := 0.3 * w
		sa, sb := colStd(a), colStd(b)
		for i := range logit {
			logit[i] += w*term[i] + leak*(a[i]/sa+b[i]/sb)/2
		}
	}
	standardize(logit)
	for i := range logit {
		logit[i] = logit[i]*spec.SignalScale + 0.3*rng.NormFloat64()
	}

	labels := makeLabels(spec, logit, rng)

	full := &frame.Frame{Label: labels}
	for j := range cols {
		full.AddColumn(fmt.Sprintf("x%d", j), cols[j])
	}
	full.Shuffle(rand.New(rand.NewSource(spec.Seed + 1)))

	tr, va, te, err := full.Split(spec.Train, spec.Valid)
	if err != nil {
		return nil, fmt.Errorf("datagen: %s: %w", spec.Name, err)
	}
	return &Dataset{
		Name:         spec.Name,
		Train:        tr,
		Valid:        va,
		Test:         te,
		Informative:  informative,
		Interactions: inters,
	}, nil
}

// makeLabels turns the noisy planted signal into labels per the spec's
// target kind.
func makeLabels(spec Spec, logit []float64, rng *rand.Rand) []float64 {
	n := len(logit)
	labels := make([]float64, n)
	switch spec.Target {
	case TargetRegression:
		copy(labels, logit)

	case TargetMulticlass:
		k := spec.Classes
		if k < 2 {
			k = 3
		}
		// Per-class affine transforms of the signal: slopes spread over
		// [-1.5, 1.5] so each class dominates a different signal band, plus
		// small random offsets so no class starts empty.
		slope := make([]float64, k)
		offset := make([]float64, k)
		for c := 0; c < k; c++ {
			slope[c] = -1.5 + 3*float64(c)/float64(k-1)
			offset[c] = 0.5 * rng.NormFloat64()
		}
		prob := make([]float64, k)
		for i, z := range logit {
			mx := math.Inf(-1)
			for c := 0; c < k; c++ {
				prob[c] = slope[c]*z + offset[c]
				if prob[c] > mx {
					mx = prob[c]
				}
			}
			var sum float64
			for c := 0; c < k; c++ {
				prob[c] = math.Exp(prob[c] - mx)
				sum += prob[c]
			}
			u := rng.Float64() * sum
			cls := k - 1
			for c := 0; c < k; c++ {
				u -= prob[c]
				if u < 0 {
					cls = c
					break
				}
			}
			labels[i] = float64(cls)
		}

	default: // TargetBinary
		// Intercept to hit PosRate (balanced default 0.5).
		target := spec.PosRate
		if target <= 0 || target >= 1 {
			target = 0.5
		}
		intercept := findIntercept(logit, target)
		for i := range labels {
			p := 1 / (1 + math.Exp(-(logit[i] + intercept)))
			if rng.Float64() < p {
				labels[i] = 1
			}
		}
	}
	return labels
}

func interact(kind InteractionKind, a, b float64) float64 {
	switch kind {
	case Ratio:
		den := b
		if math.Abs(den) < 0.1 {
			den = math.Copysign(0.1, den)
			if den == 0 {
				den = 0.1
			}
		}
		v := a / den
		// Squash extreme ratios so a handful of rows cannot dominate.
		return math.Tanh(v / 3)
	case Sum:
		return a + b
	case Diff:
		return math.Abs(a - b)
	case XorSign:
		if (a > 0) != (b > 0) {
			return 1
		}
		return -1
	default: // Product
		return a * b
	}
}

func standardize(xs []float64) {
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(xs)))
	if std < 1e-12 {
		std = 1
	}
	for i := range xs {
		xs[i] = (xs[i] - m) / std
	}
}

func colStd(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	s := math.Sqrt(ss / float64(len(xs)))
	if s < 1e-12 {
		return 1
	}
	return s
}

// findIntercept binary-searches the intercept c so that the mean of
// sigmoid(logit + c) equals the target rate.
func findIntercept(logit []float64, target float64) float64 {
	lo, hi := -20.0, 20.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		mean := 0.0
		for _, z := range logit {
			mean += 1 / (1 + math.Exp(-(z + mid)))
		}
		mean /= float64(len(logit))
		if mean < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
