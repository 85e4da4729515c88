// Package safe is the public API of this reproduction of "SAFE: Scalable
// Automatic Feature Engineering Framework for Industrial Tasks" (Shi et al.,
// ICDE 2020). SAFE learns a feature generation function Ψ from a labelled
// training set in two stages per iteration: XGBoost-path-guided feature
// generation, then a three-stage selection pipeline (Information Value
// filter, Pearson redundancy removal, XGBoost gain ranking).
//
// Quickstart — one composable entrypoint:
//
//	res, _ := safe.Fit(ctx, safe.FromCSVFile("train.csv", "label"))
//	transformed, _ := res.Pipeline.Transform(train)      // batch
//	features, _ := res.Pipeline.TransformRow(rawRow)     // real-time inference
//
// Fit composes from a Source and functional options; the engine (in-memory
// vs sharded out-of-core) is picked from the source and options:
//
//	res, _ := safe.Fit(ctx, safe.FromCSVFile("huge.csv", "label"),
//	    safe.WithTask(safe.RegressionTask()),
//	    safe.WithSharding(100_000),              // stream in 100k-row chunks
//	    safe.WithEvents(func(ev safe.FitEvent) { // live progress
//	        log.Printf("%s %s", ev.Kind, ev.Stage)
//	    }))
//
// Cancellation and deadlines propagate through every layer: cancel ctx and
// the fit aborts promptly with ctx.Err(), leaking nothing. NewPlan
// validates the same source+options into an inspectable, reusable Plan.
//
// Every generated feature carries an interpretable formula (e.g.
// "(x3 * x7)"), and new operators can be plugged in through a Registry.
// See docs/api.md for the full Plan/options model.
package safe

import (
	"io"

	"repro/internal/clf"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/shard"
)

// Config configures a SAFE fit; see core.Config for field docs.
type Config = core.Config

// Pipeline is the learned feature generation function Ψ.
type Pipeline = core.Pipeline

// Report summarises a Fit run per iteration.
type Report = core.Report

// IterationReport records stage sizes within one iteration.
type IterationReport = core.IterationReport

// SelectionConfig configures the standalone selection pipeline.
type SelectionConfig = core.SelectionConfig

// Frame is the columnar dataset type consumed by SAFE.
type Frame = frame.Frame

// Column is one named feature column of a Frame.
type Column = frame.Column

// Registry maps operator names to constructors; custom domain operators
// register here.
type Registry = operators.Registry

// Operator generates one feature from one or more input features.
type Operator = operators.Operator

// Applier is a fitted operator application.
type Applier = operators.Applier

// Arity is the number of inputs an operator consumes.
type Arity = operators.Arity

// Operator arities.
const (
	Unary   = operators.Unary
	Binary  = operators.Binary
	Ternary = operators.Ternary
)

// Task identifies the prediction task a fit engineers features for: binary
// classification (the default), K-class classification, or regression. Set
// Config.Task to steer the miner/ranker objectives and the selection
// criterion; the learned Pipeline records its task and round-trips it
// through Save/Load.
type Task = core.Task

// TaskKind enumerates the task families.
type TaskKind = core.TaskKind

// Task kinds.
const (
	TaskBinary     = core.TaskBinary
	TaskMulticlass = core.TaskMulticlass
	TaskRegression = core.TaskRegression
)

// BinaryTask returns the paper's binary classification task.
func BinaryTask() Task { return core.BinaryTask() }

// MulticlassTask returns a K-class classification task (labels are class
// indices 0..k-1).
func MulticlassTask(k int) Task { return core.MulticlassTask(k) }

// RegressionTask returns the real-valued prediction task.
func RegressionTask() Task { return core.RegressionTask() }

// ParseTask parses "binary", "multiclass:K", or "regression" — the format
// the CLI -task flags accept and Task.String produces.
func ParseTask(s string) (Task, error) { return core.ParseTask(s) }

// DefaultConfig returns the paper's experimental configuration: operators
// {+,−,×,÷}, α=0.1, β=10, θ=0.8, one iteration, 2M output budget.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultSelectionConfig returns the paper's selection thresholds.
func DefaultSelectionConfig() SelectionConfig { return core.DefaultSelectionConfig() }

// NewRegistry returns an operator registry pre-populated with the paper's
// catalogue (arithmetic, logical, transforms, normalisation, discretisation,
// GroupByThen*, ridge, conditional).
func NewRegistry() *Registry { return operators.NewRegistry() }

// LoadPipeline reads a pipeline saved with Pipeline.Save, reconstructing
// every fitted operator. This is the deployment path: train offline, save
// Ψ as JSON, load in the serving process and call TransformRow per request.
func LoadPipeline(r io.Reader) (*Pipeline, error) { return core.LoadPipeline(r) }

// LoadPipelineFile reads a pipeline from a JSON file.
func LoadPipelineFile(path string) (*Pipeline, error) { return core.LoadPipelineFile(path) }

// Select runs SAFE's three-stage feature selection over candidate columns,
// returning selected indices best-first.
func Select(cols [][]float64, labels []float64, cfg SelectionConfig) ([]int, error) {
	return core.Select(cols, labels, cfg)
}

// ChunkSource yields a labelled dataset as re-iterable row chunks — the
// substrate of the sharded out-of-core fit path.
type ChunkSource = frame.ChunkSource

// Chunk is one row-range of a chunked dataset, as yielded by a ChunkSource.
type Chunk = frame.Chunk

// ShardStats reports how a sharded fit consumed its source.
type ShardStats = shard.Stats

// RetryPolicy bounds how the sharded engine retries transient chunk-read
// errors; see WithRetry. The zero value disables retrying.
type RetryPolicy = shard.RetryPolicy

// DefaultRetryPolicy returns the standard transient-fault policy: 4 total
// read attempts per chunk with 5ms → 250ms capped exponential backoff.
func DefaultRetryPolicy() RetryPolicy { return shard.DefaultRetryPolicy() }

// PassError positions a sharded fit's chunk-read failure: the streaming
// pass, the chunk ordinal within it, and the read attempts made before
// giving up. errors.As reaches it on any failed sharded read, and Unwrap
// continues to the source's own error — e.g. a ColumnFormatError or
// ColumnChecksumError for a corrupted column file.
type PassError = shard.PassError

// Transienter marks an error as retryable for WithRetry: custom
// ChunkSource implementations return errors implementing it (Transient()
// true) to opt individual read failures into the retry policy. Errors
// that do not implement it are permanent and abort the fit.
type Transienter = frame.Transienter

// ColumnFormatError is a colstore file's structural decode failure,
// positioned by section, row group, and column. It is permanent: corrupted
// column files abort a fit with a typed error, never a wrong answer.
type ColumnFormatError = colstore.FormatError

// ColumnChecksumError is a colstore block or footer CRC-32C mismatch —
// the typed error a torn or bit-flipped column file surfaces as.
type ColumnChecksumError = colstore.ChecksumError

// OpenCSVChunks opens a CSV file as a streaming chunk source for FromChunks:
// files far larger than memory fit out-of-core. labelCol may be "";
// chunkRows <= 0 picks a default. Close it when done. The source is the
// caller's, so the fit parses it on every pass; FromCSVFile with
// WithSharding parses the same file once.
func OpenCSVChunks(path, labelCol string, chunkRows int) (*frame.CSVChunks, error) {
	return frame.OpenCSVChunks(path, labelCol, chunkRows)
}

// NewFrameChunks wraps an in-memory frame as a chunk source of chunkRows-row
// partitions, e.g. to compare sharded and in-memory fits.
func NewFrameChunks(f *Frame, chunkRows int) *frame.FrameChunks {
	return frame.NewFrameChunks(f, chunkRows)
}

// ReadCSV parses a CSV stream with a header row; labelCol may be "".
func ReadCSV(r io.Reader, labelCol string) (*Frame, error) {
	return frame.ReadCSV(r, labelCol)
}

// ReadCSVFile parses a CSV file; labelCol may be "".
func ReadCSVFile(path, labelCol string) (*Frame, error) {
	return frame.ReadCSVFile(path, labelCol)
}

// Classifier scores frames with positive-class probabilities. The nine
// evaluation classifiers of the paper's Table III are available through
// TrainClassifier.
type Classifier struct {
	model clf.Model
	names []string
}

// ClassifierNames lists the available classifier keys (AB, DT, ET, kNN, LR,
// MLP, RF, SVM, XGB).
func ClassifierNames() []string { return clf.Names() }

// TrainClassifier fits one of the nine evaluation classifiers on a labelled
// frame with default parameters.
func TrainClassifier(name string, train *Frame, seed int64) (*Classifier, error) {
	cols := colsOf(train)
	model, err := clf.Train(name, cols, train.Label, seed)
	if err != nil {
		return nil, err
	}
	return &Classifier{model: model, names: train.Names()}, nil
}

// Predict scores a frame (columns are matched positionally; use the same
// pipeline output ordering as at training time).
func (c *Classifier) Predict(f *Frame) []float64 {
	return c.model.Predict(colsOf(f))
}

// AUC computes the area under the ROC curve of scores against binary labels.
func AUC(scores, labels []float64) float64 { return metrics.AUC(scores, labels) }

// Accuracy computes thresholded accuracy at 0.5.
func Accuracy(scores, labels []float64) float64 { return metrics.Accuracy(scores, labels) }

// LogLoss computes mean negative log-likelihood.
func LogLoss(scores, labels []float64) float64 { return metrics.LogLoss(scores, labels) }

// KS computes the Kolmogorov-Smirnov statistic (max |TPR−FPR|), the standard
// discrimination metric in financial risk modelling.
func KS(scores, labels []float64) float64 { return metrics.KS(scores, labels) }

// PRAUC computes the area under the precision-recall curve — often more
// informative than ROC AUC on heavily imbalanced fraud data.
func PRAUC(scores, labels []float64) float64 { return metrics.PRAUC(scores, labels) }

// RMSE computes the root mean squared error of predictions against a
// continuous target (the regression-task evaluation metric).
func RMSE(pred, target []float64) float64 { return metrics.RMSE(pred, target) }

// ClassAccuracy computes exact-match accuracy of predicted class indices
// against class-index labels (the multiclass-task evaluation metric).
func ClassAccuracy(pred, labels []float64) float64 { return metrics.ClassAccuracy(pred, labels) }

func colsOf(f *Frame) [][]float64 {
	cols := make([][]float64, f.NumCols())
	for j := range cols {
		cols[j] = f.Columns[j].Values
	}
	return cols
}
