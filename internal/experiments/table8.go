package experiments

import (
	"fmt"
	"io"

	"repro/internal/clf"
	"repro/internal/datagen"
)

// Table8Cell is one (dataset, classifier, method) AUC on business data.
type Table8Cell struct {
	Dataset    string
	Classifier string
	AUC        map[Method]float64
}

// Table8Result holds the business-dataset evaluation.
type Table8Result struct {
	Cells []Table8Cell
}

// RunTable8 reproduces Table VIII: the three fraud-detection business
// datasets (Table VII shapes, scaled; see internal/datagen in README.md)
// evaluated with LR, RF and XGB over {ORIG, RAND, IMP, SAFE}. TFC and FCTree
// are excluded as in the paper (execution time too long at this scale).
func RunTable8(opts Options, w io.Writer) (*Table8Result, error) {
	opts = opts.normalise()
	methods := FastMethods()
	// The paper evaluates LR/RF/XGB at business scale; honour an explicit
	// classifier subset but never run the slow evaluators here.
	classifiers := intersect(opts.Classifiers, clf.FastNames())
	if len(classifiers) == 0 {
		classifiers = clf.FastNames()
	}

	res := &Table8Result{}
	for _, spec := range datagen.BusinessSpecs(opts.BusinessScale) {
		spec.Seed += opts.Seed
		ds, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		tb := newTable(append([]string{"CLF"}, methodsAsStrings(methods)...)...)
		cellsByCLF := make(map[string]*Table8Cell)
		for _, c := range classifiers {
			cell := &Table8Cell{Dataset: spec.Name, Classifier: c, AUC: make(map[Method]float64)}
			cellsByCLF[c] = cell
		}
		for _, method := range methods {
			p, _, err := BuildPipeline(method, ds.Train, opts.Seed+11)
			if err != nil {
				return nil, err
			}
			trNew, err := p.Transform(ds.Train)
			if err != nil {
				return nil, err
			}
			teNew, err := p.Transform(ds.Test)
			if err != nil {
				return nil, err
			}
			for _, c := range classifiers {
				auc, err := evaluateTransformed(trNew, teNew, c, opts.Seed+11)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", spec.Name, method, c, err)
				}
				cellsByCLF[c].AUC[method] = auc
			}
		}
		for _, c := range classifiers {
			cell := cellsByCLF[c]
			res.Cells = append(res.Cells, *cell)
			row := []string{c}
			for _, m := range methods {
				row = append(row, fmt.Sprintf("%.2f", 100*cell.AUC[m]))
			}
			tb.addRow(row...)
		}
		if w != nil {
			tb.render(w, fmt.Sprintf(
				"Table VIII (business dataset %s: %d train rows, %d features, %.1f%% positives, 100xAUC):",
				spec.Name, ds.Train.NumRows(), ds.Train.NumCols(), 100*ds.Train.PositiveRate()))
		}
	}
	return res, nil
}
