// Package serve is the online serving layer of the SAFE reproduction — the
// deployment story of Section IV-E3 at production shape. SAFE engineers
// features offline; this package applies the saved artefacts to live
// risk-scoring traffic.
//
// The pieces compose as follows:
//
//   - Registry holds multiple named, versioned fitted pipelines (each an
//     immutable Entry pairing a core.Pipeline with an optional gbdt.Model).
//     The active version of each name is an atomic pointer, so Activate
//     hot-swaps a version under load without dropping or blocking requests.
//     LoadDir populates the registry from a model directory
//     (dir/<name>/<version>/pipeline.json [+ model.json]).
//
//   - Server exposes the registry over HTTP. POST /transform and
//     POST /predict are batched: the whole request batch is evaluated in one
//     columnar pass via core.Pipeline.TransformBatch, amortising per-row
//     dispatch. Those two endpoints read and write their bytes through the
//     batch codec (codec.go): the body is scanned straight into one flat row
//     block, the reply appended to one buffer byte for byte as encoding/json
//     would render it, both in pooled memory. POST /score keeps the original
//     single-row contract.
//     Predictions follow the pipeline's task (core.Task): scalar scores for
//     binary probabilities and regression values, plus per-row
//     class-probability vectors for multiclass pipelines; registration
//     rejects task/model mismatches so a version's shape is fixed.
//     GET /pipelines, /schema, /stats and /healthz cover introspection and
//     operations; POST /admin/activate hot-swaps versions remotely.
//
//   - FeatureCache is an LRU of engineered feature vectors keyed by a
//     frame.HashString/HashFloats chain over the pipeline identity and the
//     raw row, so repeatedly-scored entities skip Ψ entirely. Hash
//     collisions are verified against the stored row and degrade to misses.
//
//   - Metrics tracks request/row/error counters and a sliding window of
//     latencies, surfaced as quantiles on GET /stats.
//
// cmd/safe-serve wires this package to the command line; docs/serving.md
// documents the HTTP API.
package serve
