package shard

import (
	"repro/internal/core"
	"repro/internal/operators"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// NewWorkerStateOn is NewWorkerState on the shared pool of the given size,
// for the tests that pin a partial's bytes across pool sizes.
func NewWorkerStateOn(names []string, task core.Task, sketchSize, workers int) *WorkerState {
	return newWorkerState(names, task, sketchSize, operators.NewRegistry(), sketch.NewArena(), parallel.Get(workers))
}

// PartialSize is the quantile partial budget, for the test that pins a
// partial's wire size to it.
const PartialSize = partialSize
