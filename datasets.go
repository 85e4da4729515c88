package safe

import "repro/internal/datagen"

// DatasetSpec describes a synthetic dataset with planted feature
// interactions (the data substrate standing in for the paper's OpenML and
// Ant Financial datasets; see internal/datagen in README.md's repository map).
type DatasetSpec = datagen.Spec

// Dataset is a generated train/valid/test triple with ground truth about
// the planted signal.
type Dataset = datagen.Dataset

// GenerateDataset builds a synthetic dataset from a spec.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return datagen.Generate(spec) }

// TargetKind selects the label type a DatasetSpec generates.
type TargetKind = datagen.TargetKind

// Label kinds for DatasetSpec.Target.
const (
	TargetBinary     = datagen.TargetBinary
	TargetMulticlass = datagen.TargetMulticlass
	TargetRegression = datagen.TargetRegression
)

// TargetForTask maps a prediction task to the dataset generator's label
// settings (Spec.Target, Spec.Classes) — the one place the mapping lives,
// shared by safe-datagen and the benchmark harness so the two tools cannot
// drift apart on what labels a task gets.
func TargetForTask(t Task) (TargetKind, int) {
	switch t.Kind {
	case TaskMulticlass:
		return datagen.TargetMulticlass, t.Classes
	case TaskRegression:
		return datagen.TargetRegression, 0
	default:
		return datagen.TargetBinary, 0
	}
}

// BenchmarkDatasetSpecs returns the 12 Table IV dataset shapes; scale in
// (0,1] shrinks row counts for quick runs.
func BenchmarkDatasetSpecs(scale float64) []DatasetSpec { return datagen.BenchmarkSpecs(scale) }

// BusinessDatasetSpecs returns the 3 Table VII fraud-detection shapes,
// scaled (the paper's originals are 2.5M-8M rows).
func BusinessDatasetSpecs(scale float64) []DatasetSpec { return datagen.BusinessSpecs(scale) }

// FraudDatasetSpec returns a mid-sized imbalanced fraud-detection spec used
// by the examples.
func FraudDatasetSpec() DatasetSpec { return datagen.FraudSpec() }
