package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gbdt"
)

// Entry is one immutable registered artefact: a fitted pipeline Ψ under a
// (name, version) key, with an optional downstream GBDT model trained on Ψ's
// output. Entries are never mutated after registration, so readers obtained
// via Get can use them lock-free for the lifetime of a request.
type Entry struct {
	Name     string
	Version  string
	Pipeline *core.Pipeline
	Model    *gbdt.Model
}

// group holds every version of one named pipeline. The active version is an
// atomic pointer so the request hot path never takes the write lock: Activate
// swaps the pointer and in-flight requests keep the entry they already
// resolved — a hot swap drops no requests.
type group struct {
	active atomic.Pointer[Entry]

	mu       sync.Mutex
	versions map[string]*Entry
	order    []string // registration order, for stable listings
}

// Registry is a concurrent store of named, versioned pipelines. It supports
// multiple models served side by side (e.g. a champion and a challenger),
// explicit version pinning per request, and atomic activation of a new
// version under load.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]*group
	names  []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*group)}
}

// validateEntry checks the pipeline/model pairing that every registration
// path must satisfy.
func validateEntry(name, version string, p *core.Pipeline, m *gbdt.Model) error {
	if name == "" || version == "" {
		return fmt.Errorf("serve: pipeline name and version must be non-empty")
	}
	if p == nil {
		return fmt.Errorf("serve: nil pipeline for %s@%s", name, version)
	}
	if m == nil {
		return nil
	}
	if m.NumFeat != p.NumFeatures() {
		return fmt.Errorf("serve: %s@%s: model expects %d features, pipeline emits %d",
			name, version, m.NumFeat, p.NumFeatures())
	}
	// The model's objective must fit the pipeline's task, or /predict would
	// emit the wrong prediction shape. A binary pipeline accepts Logistic
	// and Squared models (raw-score scoring predates the task field), and
	// nothing else: an unknown objective would answer its raw sum.
	switch p.Task.Kind {
	case core.TaskMulticlass:
		if m.Config.Objective != gbdt.Softmax || m.Config.NumClass != p.Task.Classes {
			return fmt.Errorf("serve: %s@%s: %s pipeline needs a softmax model with %d classes",
				name, version, p.Task, p.Task.Classes)
		}
	case core.TaskRegression:
		if m.Config.Objective != gbdt.Squared {
			return fmt.Errorf("serve: %s@%s: %s pipeline needs a squared-error model", name, version, p.Task)
		}
	default:
		if o := m.Config.Objective; o != gbdt.Logistic && o != gbdt.Squared {
			return fmt.Errorf("serve: %s@%s: %s pipeline needs a logistic or squared-error model, got objective %d",
				name, version, p.Task, int(o))
		}
	}
	return nil
}

// Register adds a pipeline version. The first version registered under a
// name becomes active; later versions are servable by explicit version pin
// until Activate promotes them. Registering a (name, version) pair twice is
// an error — versions are immutable, publish a new version instead.
func (r *Registry) Register(name, version string, p *core.Pipeline, m *gbdt.Model) error {
	if err := validateEntry(name, version, p, m); err != nil {
		return err
	}
	e := &Entry{Name: name, Version: version, Pipeline: p, Model: m}

	r.mu.Lock()
	g, ok := r.groups[name]
	if !ok {
		g = &group{versions: make(map[string]*Entry)}
		r.groups[name] = g
		r.names = append(r.names, name)
	}
	r.mu.Unlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.versions[version]; dup {
		return fmt.Errorf("serve: %s@%s already registered", name, version)
	}
	g.versions[version] = e
	g.order = append(g.order, version)
	if g.active.Load() == nil {
		g.active.Store(e)
	}
	return nil
}

// Activate atomically promotes an already-registered version to active for
// its name. Requests that resolved the previous entry finish on it; new
// requests see the promoted version — no request observes a half-swapped
// state and none fail during the swap.
func (r *Registry) Activate(name, version string) error {
	g, resolved, err := r.group(name)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.versions[version]
	if !ok {
		return fmt.Errorf("serve: unknown version %s@%s", resolved, version)
	}
	g.active.Store(e)
	return nil
}

// group resolves a name to its version group, also returning the resolved
// name so callers can report it when the caller-supplied name was empty.
func (r *Registry) group(name string) (*group, string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.names) == 1 {
			return r.groups[r.names[0]], r.names[0], nil
		}
		return nil, "", fmt.Errorf("serve: pipeline name required (%d pipelines registered)", len(r.names))
	}
	g, ok := r.groups[name]
	if !ok {
		return nil, "", fmt.Errorf("serve: unknown pipeline %q", name)
	}
	return g, name, nil
}

// Get resolves a servable entry. An empty name is allowed when exactly one
// pipeline is registered; an empty version resolves the active one. The hot
// path for the common case (active version) is a read-lock map hit plus one
// atomic load.
func (r *Registry) Get(name, version string) (*Entry, error) {
	g, resolved, err := r.group(name)
	if err != nil {
		return nil, err
	}
	if version == "" {
		if e := g.active.Load(); e != nil {
			return e, nil
		}
		return nil, fmt.Errorf("serve: pipeline %q has no active version", resolved)
	}
	g.mu.Lock()
	e, ok := g.versions[version]
	g.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown version %s@%s", resolved, version)
	}
	return e, nil
}

// Names returns the registered pipeline names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// PipelineInfo describes one registered pipeline for the /pipelines listing.
type PipelineInfo struct {
	Name     string   `json:"name"`
	Versions []string `json:"versions"`
	Active   string   `json:"active"`
	Task     string   `json:"task,omitempty"`
	Inputs   int      `json:"inputs"`
	Outputs  int      `json:"outputs"`
	HasModel bool     `json:"has_model"`
}

// Snapshot returns a consistent listing of every pipeline and its versions.
func (r *Registry) Snapshot() []PipelineInfo {
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	groups := make([]*group, len(names))
	for i, n := range names {
		groups[i] = r.groups[n]
	}
	r.mu.RUnlock()

	out := make([]PipelineInfo, 0, len(names))
	for i, g := range groups {
		g.mu.Lock()
		info := PipelineInfo{Name: names[i], Versions: append([]string(nil), g.order...)}
		g.mu.Unlock()
		if e := g.active.Load(); e != nil {
			info.Active = e.Version
			info.Task = e.Pipeline.Task.String()
			info.Inputs = len(e.Pipeline.OriginalNames)
			info.Outputs = e.Pipeline.NumFeatures()
			info.HasModel = e.Model != nil
		}
		out = append(out, info)
	}
	return out
}

// LoadDir populates the registry from a model directory with the layout
//
//	dir/<name>/<version>/pipeline.json   (required)
//	dir/<name>/<version>/model.json      (optional GBDT model)
//
// Versions are registered in lexical order and the lexically greatest
// version of each name is activated, so `v1 < v2 < v10` directories should
// use zero-padded or date-stamped versions. Returns the number of entries
// registered.
func (r *Registry) LoadDir(dir string) (int, error) {
	return r.LoadDirContext(context.Background(), dir)
}

// LoadDirContext is LoadDir with cooperative cancellation: the warm load
// checks ctx before each version, so a shutdown signal during a large
// model-directory load aborts promptly with ctx.Err() instead of parsing
// every remaining artefact first. Entries already registered stay
// registered (the returned count says how many).
func (r *Registry) LoadDirContext(ctx context.Context, dir string) (int, error) {
	names, err := sortedSubdirs(dir)
	if err != nil {
		return 0, fmt.Errorf("serve: load dir: %w", err)
	}
	loaded := 0
	for _, name := range names {
		versions, err := sortedSubdirs(filepath.Join(dir, name))
		if err != nil {
			return loaded, fmt.Errorf("serve: load dir: %w", err)
		}
		if len(versions) == 0 {
			continue
		}
		for _, version := range versions {
			if err := ctx.Err(); err != nil {
				return loaded, err
			}
			vdir := filepath.Join(dir, name, version)
			p, err := core.LoadPipelineFile(filepath.Join(vdir, "pipeline.json"))
			if err != nil {
				return loaded, fmt.Errorf("serve: load %s@%s: %w", name, version, err)
			}
			var m *gbdt.Model
			modelPath := filepath.Join(vdir, "model.json")
			switch _, err := os.Stat(modelPath); {
			case err == nil:
				if m, err = gbdt.LoadFile(modelPath); err != nil {
					return loaded, fmt.Errorf("serve: load %s@%s: %w", name, version, err)
				}
			case !errors.Is(err, fs.ErrNotExist):
				// A present-but-unreadable model must fail at load time, not
				// surface later as a model-less version rejecting /predict.
				return loaded, fmt.Errorf("serve: load %s@%s: %w", name, version, err)
			}
			if err := r.Register(name, version, p, m); err != nil {
				return loaded, err
			}
			loaded++
		}
		if err := r.Activate(name, versions[len(versions)-1]); err != nil {
			return loaded, err
		}
	}
	return loaded, nil
}

func sortedSubdirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
