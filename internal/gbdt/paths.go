package gbdt

import "sort"

// Path describes one root-to-leaf path of one tree: the distinct split
// features encountered on the way down, with the split values used for each
// (a feature may be split on several times along a path, so each feature
// carries a set of values). This is the p_j of Section IV-B of the paper.
type Path struct {
	Features []int             // distinct split features, in first-seen order
	Values   map[int][]float64 // feature -> sorted distinct split values V_i
}

// Paths enumerates every root-to-leaf path of every tree in the model. Paths
// consisting of a bare leaf (trees that never split) are omitted.
func (m *Model) Paths() []Path {
	var out []Path
	for _, t := range m.Trees {
		if len(t.Nodes) <= 1 {
			continue
		}
		var walk func(idx int, feats []int, vals map[int][]float64)
		walk = func(idx int, feats []int, vals map[int][]float64) {
			n := &t.Nodes[idx]
			if n.IsLeaf() {
				if len(feats) == 0 {
					return
				}
				p := Path{
					Features: append([]int(nil), feats...),
					Values:   make(map[int][]float64, len(vals)),
				}
				for f, vs := range vals {
					cp := append([]float64(nil), vs...)
					sort.Float64s(cp)
					cp = dedupFloats(cp)
					p.Values[f] = cp
				}
				out = append(out, p)
				return
			}
			seen := false
			for _, f := range feats {
				if f == n.Feature {
					seen = true
					break
				}
			}
			nextFeats := feats
			if !seen {
				nextFeats = append(feats, n.Feature)
			}
			vals[n.Feature] = append(vals[n.Feature], n.Threshold)
			walk(n.Left, nextFeats, vals)
			walk(n.Right, nextFeats, vals)
			vals[n.Feature] = vals[n.Feature][:len(vals[n.Feature])-1]
			if !seen && len(vals[n.Feature]) == 0 {
				delete(vals, n.Feature)
			}
		}
		walk(0, nil, make(map[int][]float64))
	}
	return out
}

func dedupFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, v := range xs {
		if i == 0 || v != xs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// SplitFeatures returns the sorted set of features that act as a split
// feature anywhere in the model. Features absent from the result are the
// paper's "non-split features".
func (m *Model) SplitFeatures() []int {
	set := make(map[int]bool)
	for _, t := range m.Trees {
		for i := range t.Nodes {
			if !t.Nodes[i].IsLeaf() {
				set[t.Nodes[i].Feature] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// GainImportance returns, per feature, the average gain across all splits in
// which the feature is used (the XGBoost "gain" importance the paper uses to
// rank candidate features). Features never used score 0.
func (m *Model) GainImportance() []float64 {
	total := make([]float64, m.NumFeat)
	count := make([]float64, m.NumFeat)
	for _, t := range m.Trees {
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.IsLeaf() {
				continue
			}
			total[n.Feature] += n.Gain
			count[n.Feature]++
		}
	}
	out := make([]float64, m.NumFeat)
	for j := range out {
		if count[j] > 0 {
			out[j] = total[j] / count[j]
		}
	}
	return out
}
