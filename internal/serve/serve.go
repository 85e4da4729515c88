package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/gbdt"
)

// DefaultMaxBatch caps how many rows a single /transform or /predict request
// may carry when Options.MaxBatch is unset.
const DefaultMaxBatch = 4096

// DefaultMaxBodyBytes bounds a request body when Options.MaxBodyBytes is
// unset. The row-count limit alone cannot protect memory — a batch body is
// read whole before its rows are scanned — so the byte cap is enforced first.
const DefaultMaxBodyBytes = 32 << 20

// Options configures a Server.
type Options struct {
	// MaxBatch is the largest accepted rows-per-request; <= 0 means
	// DefaultMaxBatch. Oversized batches are rejected with 413.
	MaxBatch int
	// MaxBodyBytes is the largest accepted request body; <= 0 means
	// DefaultMaxBodyBytes. Oversized bodies are rejected with 413.
	MaxBodyBytes int64
	// CacheSize is the feature-cache capacity in rows; <= 0 disables the
	// cache.
	CacheSize int
}

// Server is the HTTP serving layer: it exposes every pipeline in a Registry
// through batched transform/predict endpoints, with an optional feature
// cache and request metrics.
type Server struct {
	registry *Registry
	cache    *FeatureCache
	metrics  *Metrics
	maxBatch int
	maxBody  int64
}

// NewServer builds a server over the given registry.
func NewServer(reg *Registry, opts Options) *Server {
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	return &Server{
		registry: reg,
		cache:    NewFeatureCache(opts.CacheSize),
		metrics:  NewMetrics(),
		maxBatch: maxBatch,
		maxBody:  maxBody,
	}
}

// decodeBody decodes a JSON request body under the byte cap, writing the
// error response itself on failure: 413 for an oversized body, 400 for
// malformed JSON. Returns the written status and whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) (int, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return s.writeBodyError(w, err), false
	}
	return http.StatusOK, true
}

// writeBodyError answers a body that could not be read or parsed: 413 when it
// ran into the byte cap, 400 otherwise.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.maxBody))
	}
	return writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
}

// Registry returns the server's registry, for in-process administration
// (registering or activating versions while serving).
func (s *Server) Registry() *Registry { return s.registry }

// BatchRequest is the JSON body of POST /transform and POST /predict. Rows
// are dense and ordered as the pipeline's input schema (GET /schema).
type BatchRequest struct {
	// Pipeline selects the registered pipeline by name; optional when
	// exactly one pipeline is registered.
	Pipeline string `json:"pipeline,omitempty"`
	// Version pins a specific version; empty means the active one.
	Version string `json:"version,omitempty"`
	// Rows is the request batch, each row ordered as the input schema.
	Rows [][]float64 `json:"rows"`
	// ReturnFeatures asks /predict to include the engineered features in
	// the response alongside the scores.
	ReturnFeatures bool `json:"return_features,omitempty"`
}

// BatchResponse is the JSON body returned by /transform and /predict. The
// shape of a prediction follows the pipeline's task: Scores always carries
// one scalar per row (the positive-class probability for binary models, the
// raw prediction for regression, the argmax class index for multiclass),
// and Probs additionally carries the per-row class-probability vector for
// multiclass models.
type BatchResponse struct {
	Pipeline string      `json:"pipeline"`
	Version  string      `json:"version"`
	Names    []string    `json:"names,omitempty"`
	Features [][]float64 `json:"features,omitempty"`
	Scores   []float64   `json:"scores,omitempty"`
	Probs    [][]float64 `json:"probs,omitempty"`
}

// ScoreRequest is the JSON body of POST /score (single-row endpoint):
// either a dense row ordered as the input schema, or a name->value map.
type ScoreRequest struct {
	Pipeline string             `json:"pipeline,omitempty"`
	Version  string             `json:"version,omitempty"`
	Row      []float64          `json:"row,omitempty"`
	Values   map[string]float64 `json:"values,omitempty"`
}

// ScoreResponse is the JSON body returned by /score. Probs is set for
// multiclass models only (Score then carries the argmax class index).
type ScoreResponse struct {
	Features []float64 `json:"features"`
	Names    []string  `json:"names,omitempty"`
	Score    *float64  `json:"score,omitempty"`
	Probs    []float64 `json:"probs,omitempty"`
}

// activateRequest is the JSON body of POST /admin/activate.
type activateRequest struct {
	Pipeline string `json:"pipeline"`
	Version  string `json:"version"`
}

// ServeHTTP routes:
//
//	POST /transform       batched feature engineering
//	POST /predict         batched feature engineering + model scoring
//	POST /score           single row (back-compatible with the v1 service)
//	POST /admin/activate  hot-swap the active version of a pipeline
//	GET  /pipelines       registry listing
//	GET  /schema          input/output schema of one pipeline
//	GET  /stats           request counters, latency quantiles, cache stats
//	GET  /healthz         liveness
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cache, s.registry))
	case r.URL.Path == "/pipelines" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.registry.Snapshot())
	case r.URL.Path == "/schema" && r.Method == http.MethodGet:
		s.handleSchema(w, r)
	case r.URL.Path == "/transform" && r.Method == http.MethodPost:
		s.handleBatch(w, r, false)
	case r.URL.Path == "/predict" && r.Method == http.MethodPost:
		s.handleBatch(w, r, true)
	case r.URL.Path == "/score" && r.Method == http.MethodPost:
		s.handleScore(w, r)
	case r.URL.Path == "/admin/activate" && r.Method == http.MethodPost:
		s.handleActivate(w, r)
	default:
		writeError(w, http.StatusNotFound, "not found")
	}
}

type schemaResponse struct {
	Pipeline string   `json:"pipeline"`
	Version  string   `json:"version"`
	Task     string   `json:"task"`
	Inputs   []string `json:"inputs"`
	Outputs  []string `json:"outputs"`
	HasModel bool     `json:"has_model"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	e, err := s.registry.Get(q.Get("pipeline"), q.Get("version"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, schemaResponse{
		Pipeline: e.Name,
		Version:  e.Version,
		Task:     e.Pipeline.Task.String(),
		Inputs:   e.Pipeline.OriginalNames,
		Outputs:  e.Pipeline.Output,
		HasModel: e.Model != nil,
	})
}

func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	var req activateRequest
	if _, ok := s.decodeBody(w, r, &req); !ok {
		return
	}
	if err := s.registry.Activate(req.Pipeline, req.Version); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"pipeline": req.Pipeline, "active": req.Version,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, predict bool) {
	start := time.Now()
	nRows, status := s.serveBatch(w, r, predict)
	s.metrics.Observe(time.Since(start), nRows, status >= 400)
}

// serveBatch decodes, validates and executes one batched request, returning
// the row count and response status for metrics. The body, the rows parsed
// from it and the rendered reply live in one pooled batchBuf, handed back
// once the reply is written.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, predict bool) (int, int) {
	buf := batchBufs.Get().(*batchBuf)
	defer batchBufs.Put(buf)
	if err := buf.readBody(http.MaxBytesReader(w, r.Body, s.maxBody), min(r.ContentLength, s.maxBody)); err != nil {
		return 0, s.writeBodyError(w, err)
	}
	req, err := decodeBatch(buf.body.Bytes(), s.maxBatch, buf)
	if err == errTooManyRows {
		return 0, writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch exceeds the limit of %d rows", s.maxBatch))
	}
	if err != nil {
		return 0, writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
	}
	if len(req.Rows) == 0 {
		return 0, writeError(w, http.StatusBadRequest, `bad request: "rows" must be a non-empty array`)
	}
	e, err := s.registry.Get(req.Pipeline, req.Version)
	if err != nil {
		return 0, writeError(w, http.StatusNotFound, err.Error())
	}
	if predict && e.Model == nil {
		return 0, writeError(w, http.StatusBadRequest,
			fmt.Sprintf("pipeline %s@%s has no model attached; use /transform", e.Name, e.Version))
	}
	width := len(e.Pipeline.OriginalNames)
	for i, row := range req.Rows {
		if len(row) != width {
			return 0, writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bad request: row %d has %d values, want %d", i, len(row), width))
		}
	}

	features, scores, probs, err := s.runBatch(e, req.Rows, predict)
	if err != nil {
		return 0, writeError(w, http.StatusBadRequest, err.Error())
	}
	resp := BatchResponse{Pipeline: e.Name, Version: e.Version}
	if predict {
		resp.Scores = scores
		resp.Probs = probs
		if req.ReturnFeatures {
			resp.Names, resp.Features = e.Pipeline.Output, features
		}
	} else {
		resp.Names, resp.Features = e.Pipeline.Output, features
	}
	if buf.out, err = appendBatchResponse(buf.out[:0], &resp); err != nil {
		return 0, writeUnrenderable(w, err)
	}
	return len(req.Rows), writeBody(w, http.StatusOK, buf.out)
}

// runBatch evaluates rows through e, consulting the feature cache per row
// and transforming only the misses in one columnar pass. For multiclass
// models probs carries the per-row class-probability vectors and the scalar
// score is the argmax class index; probs is nil otherwise.
func (s *Server) runBatch(e *Entry, rows [][]float64, predict bool) ([][]float64, []float64, [][]float64, error) {
	n := len(rows)
	features := make([][]float64, n)
	var scores []float64
	var probs [][]float64
	multi := predict && e.Model.NumGroups() > 1
	if predict {
		scores = make([]float64, n)
		if multi {
			probs = make([][]float64, n)
		}
	}
	// score fills scores[i] (and probs[i]) from features[i], returning a
	// cacheable scalar (nil for multiclass: the cache stores one scalar per
	// row, so vector predictions are recomputed from cached features).
	score := func(i int) *float64 {
		if multi {
			v := e.Model.PredictRowVector(features[i])
			probs[i] = v
			scores[i] = float64(gbdt.Argmax(v))
			return nil
		}
		scores[i] = e.Model.PredictRow(features[i])
		return &scores[i]
	}

	var keys []uint64
	missIdx := make([]int, 0, n)
	if s.cache != nil {
		keys = make([]uint64, n)
		for i, row := range rows {
			keys[i] = cacheKey(e, row)
			ent, ok := s.cache.Get(keys[i], row)
			if !ok {
				missIdx = append(missIdx, i)
				continue
			}
			features[i] = ent.features
			if predict {
				if ent.hasScore && !multi {
					scores[i] = ent.score
				} else if sc := score(i); sc != nil {
					s.cache.Put(keys[i], row, ent.features, sc)
				}
			}
		}
	} else {
		for i := range rows {
			missIdx = append(missIdx, i)
		}
	}

	if len(missIdx) > 0 {
		missRows := make([][]float64, len(missIdx))
		for k, i := range missIdx {
			missRows[k] = rows[i]
		}
		out, err := e.Pipeline.TransformBatch(missRows)
		if err != nil {
			return nil, nil, nil, err
		}
		for k, i := range missIdx {
			features[i] = out[k]
			var sc *float64
			if predict {
				sc = score(i)
			}
			if s.cache != nil {
				s.cache.Put(keys[i], rows[i], out[k], sc)
			}
		}
	}
	return features, scores, probs, nil
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := s.serveScore(w, r)
	s.metrics.Observe(time.Since(start), 1, status >= 400)
}

func (s *Server) serveScore(w http.ResponseWriter, r *http.Request) int {
	var req ScoreRequest
	if status, ok := s.decodeBody(w, r, &req); !ok {
		return status
	}
	e, err := s.registry.Get(req.Pipeline, req.Version)
	if err != nil {
		return writeError(w, http.StatusNotFound, err.Error())
	}
	row := req.Row
	if row == nil {
		if req.Values == nil {
			return writeError(w, http.StatusBadRequest, `bad request: provide "row" or "values"`)
		}
		row = make([]float64, len(e.Pipeline.OriginalNames))
		for i, name := range e.Pipeline.OriginalNames {
			v, ok := req.Values[name]
			if !ok {
				return writeError(w, http.StatusBadRequest,
					fmt.Sprintf("bad request: missing value for %q", name))
			}
			row[i] = v
		}
	}
	if len(row) != len(e.Pipeline.OriginalNames) {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("bad request: got %d values, want %d", len(row), len(e.Pipeline.OriginalNames)))
	}
	features, scores, probs, err := s.runBatch(e, [][]float64{row}, e.Model != nil)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
	}
	resp := ScoreResponse{Features: features[0], Names: e.Pipeline.Output}
	if e.Model != nil {
		resp.Score = &scores[0]
		if probs != nil {
			resp.Probs = probs[0]
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// errorResponse is the JSON error body used by every endpoint.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) int {
	return writeJSON(w, status, errorResponse{Error: msg})
}

// writeUnrenderable answers a reply that does not encode as JSON (a NaN or
// ±Inf score): a 500, which the caller counts as a failure.
func writeUnrenderable(w http.ResponseWriter, err error) int {
	return writeError(w, http.StatusInternalServerError, "reply cannot be rendered: "+err.Error())
}

// writeJSON renders v, then writes it under status; a v that does not render
// is a 500 instead. Returns the status written.
func writeJSON(w http.ResponseWriter, status int, v interface{}) int {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		return writeUnrenderable(w, err)
	}
	return writeBody(w, status, body.Bytes())
}

// writeBody writes a rendered JSON body under status.
func writeBody(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that has gone away is not the server's failure
	return status
}
