package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/gbdt"
	"repro/internal/stats"
)

// TaskKind enumerates the prediction task families SAFE can engineer
// features for. The paper evaluates on binary risk scoring; the criterion
// layer (Information Value, gain ratio) and the XGBoost objectives
// generalise per task, while the generation, redundancy-removal and ranking
// machinery is shared.
type TaskKind int

const (
	// TaskBinary is two-class classification on {0,1} labels: sigmoid GBDT
	// objectives and Information Value selection (the paper's setting, and
	// the zero value).
	TaskBinary TaskKind = iota
	// TaskMulticlass is K-class classification on class-index labels in
	// [0,K): softmax GBDT objectives and a per-class-histogram multiclass
	// Information Value.
	TaskMulticlass
	// TaskRegression is real-valued prediction: squared-error GBDT
	// objectives and a correlation-ratio (one-way ANOVA η²) criterion.
	TaskRegression
)

// Task identifies the prediction task a fit runs for: the kind plus, for
// multiclass, the class count. The zero value is the binary task, so
// existing configurations keep their behaviour.
type Task struct {
	Kind TaskKind
	// Classes is the class count for TaskMulticlass (>= 2); ignored for the
	// other kinds.
	Classes int
}

// BinaryTask returns the paper's binary classification task.
func BinaryTask() Task { return Task{Kind: TaskBinary} }

// MulticlassTask returns a K-class classification task.
func MulticlassTask(k int) Task { return Task{Kind: TaskMulticlass, Classes: k} }

// RegressionTask returns the real-valued prediction task.
func RegressionTask() Task { return Task{Kind: TaskRegression} }

// String renders the task in the form ParseTask accepts: "binary",
// "multiclass:K", or "regression".
func (t Task) String() string {
	switch t.Kind {
	case TaskMulticlass:
		return fmt.Sprintf("multiclass:%d", t.Classes)
	case TaskRegression:
		return "regression"
	default:
		return "binary"
	}
}

// ParseTask parses a task spec: "binary", "regression", or "multiclass:K"
// (K >= 2). It is the parser behind the CLI -task flags.
func ParseTask(s string) (Task, error) {
	switch {
	case s == "" || s == "binary":
		return BinaryTask(), nil
	case s == "regression":
		return RegressionTask(), nil
	case strings.HasPrefix(s, "multiclass:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "multiclass:"))
		if err != nil || k < 2 {
			return Task{}, fmt.Errorf("core: bad task %q: want multiclass:K with K >= 2", s)
		}
		return MulticlassTask(k), nil
	default:
		return Task{}, fmt.Errorf("core: unknown task %q (want binary, multiclass:K, or regression)", s)
	}
}

// Validate checks the task is well-formed.
func (t Task) Validate() error {
	switch t.Kind {
	case TaskBinary, TaskRegression:
		return nil
	case TaskMulticlass:
		if t.Classes < 2 {
			return fmt.Errorf("core: multiclass task needs Classes >= 2, got %d", t.Classes)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown task kind %d", t.Kind)
	}
}

// ValidateLabels checks a label vector fits the task: {0,1} for binary,
// integer class indices in [0,Classes) for multiclass, finite values for
// regression.
func (t Task) ValidateLabels(labels []float64) error {
	switch t.Kind {
	case TaskBinary:
		for i, y := range labels {
			if y != 0 && y != 1 {
				return fmt.Errorf("core: row %d: label %g is not in {0,1} (binary task)", i, y)
			}
		}
	case TaskMulticlass:
		k := float64(t.Classes)
		for i, y := range labels {
			if y != math.Trunc(y) || y < 0 || y >= k {
				return fmt.Errorf("core: row %d: label %g is not a class index in [0,%d)", i, y, t.Classes)
			}
		}
	case TaskRegression:
		for i, y := range labels {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("core: row %d: target %g is not finite (regression task)", i, y)
			}
		}
	}
	return nil
}

// Code is the task's target code of labels (stats.TargetCode), which every
// criterion and combination score of both engines counts: each row's class
// id (0 or 1 for binary, the class index for multiclass) or a regression
// target's fixed-point code. A fit builds it once, from validated labels.
func (t Task) Code(labels []float64) *stats.TargetCode {
	code := new(stats.TargetCode)
	switch t.Kind {
	case TaskBinary:
		code.Classes, code.Binary = 2, true
	case TaskMulticlass:
		code.Classes = t.Classes
	}
	code.Encode(labels)
	return code
}

// ApplyObjective sets a GBDT configuration's loss to the task's objective —
// the mapping the fit engine applies to its miner and ranker, exported so
// downstream-model builders (examples, serving flows) stay consistent with
// the fitted pipeline's task.
func (t Task) ApplyObjective(cfg *gbdt.Config) { t.applyObjective(cfg) }

// applyObjective sets a GBDT configuration's loss to the task's objective:
// sigmoid cross-entropy, softmax over Classes, or squared error.
func (t Task) applyObjective(cfg *gbdt.Config) {
	switch t.Kind {
	case TaskMulticlass:
		cfg.Objective = gbdt.Softmax
		cfg.NumClass = t.Classes
	case TaskRegression:
		cfg.Objective = gbdt.Squared
		cfg.NumClass = 0
	default:
		cfg.Objective = gbdt.Logistic
		cfg.NumClass = 0
	}
}
