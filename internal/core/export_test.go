package core

import (
	"context"
	"time"

	"repro/internal/frame"
)

// FitCarried is Engineer.Fit that also hands back what the fit itself held
// for its final selection: the training column of every output feature, in
// output order — the columns the last round scored, ranked and carried.
func FitCarried(cfg Config, train *frame.Frame) (*Pipeline, [][]float64, error) {
	p, carried, _, err := FitObserved(cfg, train)
	return p, carried, err
}

// FitObserved is FitCarried that also lists, per round, the formulas the
// round enumerated.
func FitObserved(cfg Config, train *frame.Frame) (*Pipeline, [][]float64, [][]string, error) {
	eng, err := New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := newMemorySet(context.Background(), &eng.cfg, eng.pool, train, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	log := &enumerationLog{WorkingSet: m}
	p, _, err := RunRounds(context.Background(), eng.cfg, train.Names(), log, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	carried := make([][]float64, len(m.live))
	for i, lf := range m.live {
		carried[i] = lf.train
	}
	return p, carried, log.rounds, nil
}

// enumerationLog is a WorkingSet that notes the generated candidates of each
// round on their way to the working set it wraps.
type enumerationLog struct {
	WorkingSet
	rounds [][]string
}

func (l *enumerationLog) Generate(cands []*Candidate) (time.Duration, error) {
	var names []string
	for _, c := range cands {
		if c.Node != nil {
			names = append(names, c.Node.Name)
		}
	}
	l.rounds = append(l.rounds, names)
	return l.WorkingSet.Generate(cands)
}

// RawOutputs is the reference the clamp is judged against: Ψ walked by name
// with every operator's output left as the operator wrote it, NaN and ±Inf
// included. It returns the output columns.
func RawOutputs(p *Pipeline, f *frame.Frame) [][]float64 {
	cols := make(map[string][]float64)
	for _, c := range f.Columns {
		cols[c.Name] = c.Values
	}
	for _, nd := range p.Nodes {
		in := make([][]float64, len(nd.Inputs))
		for k, dep := range nd.Inputs {
			in[k] = cols[dep]
		}
		cols[nd.Name] = nd.Applier.Transform(in)
	}
	out := make([][]float64, len(p.Output))
	for i, name := range p.Output {
		out[i] = cols[name]
	}
	return out
}
