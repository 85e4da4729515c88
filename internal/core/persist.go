package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/operators"
)

// pipelineJSON is the on-disk representation of a Pipeline.
type pipelineJSON struct {
	Version       int        `json:"version"`
	Task          string     `json:"task,omitempty"` // absent in pre-task files => binary
	OriginalNames []string   `json:"original_names"`
	Nodes         []nodeJSON `json:"nodes"`
	Output        []string   `json:"output"`
}

type nodeJSON struct {
	Name   string          `json:"name"`
	Inputs []string        `json:"inputs"`
	Kind   string          `json:"kind"`
	Data   json.RawMessage `json:"data"`
}

const pipelineVersion = 1

// MarshalJSON serialises the pipeline, including every fitted operator's
// learned parameters, so Ψ can be trained offline and loaded by a serving
// process. Custom appliers must implement operators.PersistableApplier.
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	out := pipelineJSON{
		Version:       pipelineVersion,
		Task:          p.Task.String(),
		OriginalNames: p.OriginalNames,
		Output:        p.Output,
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		kind, data, err := operators.EncodeApplier(n.Applier)
		if err != nil {
			return nil, fmt.Errorf("core: marshal node %q: %w", n.Name, err)
		}
		out.Nodes = append(out.Nodes, nodeJSON{
			Name: n.Name, Inputs: n.Inputs, Kind: kind, Data: data,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON reconstructs a pipeline saved by MarshalJSON and compiles it:
// a file whose nodes do not form a valid program is an error here, not a
// failure at the first request.
func (p *Pipeline) UnmarshalJSON(data []byte) error {
	var in pipelineJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: unmarshal pipeline: %w", err)
	}
	if in.Version != pipelineVersion {
		return fmt.Errorf("core: unsupported pipeline version %d (want %d)", in.Version, pipelineVersion)
	}
	task, err := ParseTask(in.Task)
	if err != nil {
		return err
	}
	p.Task = task
	p.OriginalNames = in.OriginalNames
	p.Output = in.Output
	p.Nodes = p.Nodes[:0]
	first := make(map[string]nodeJSON, len(in.Nodes))
	for _, n := range in.Nodes {
		// Fits used to write a formula once per round that enumerated it,
		// every copy the same: such a copy is read past. Any other repeated
		// name fails the compile below.
		if f, ok := first[n.Name]; ok && slices.Equal(f.Inputs, n.Inputs) && f.Kind == n.Kind && bytes.Equal(f.Data, n.Data) {
			continue
		}
		first[n.Name] = n
		applier, err := operators.DecodeApplier(n.Kind, n.Data)
		if err != nil {
			return fmt.Errorf("core: unmarshal node %q: %w", n.Name, err)
		}
		p.Nodes = append(p.Nodes, FeatureNode{Name: n.Name, Inputs: n.Inputs, Applier: applier})
	}
	p.prog.Store(nil)
	_, err = p.program()
	return err
}

// Save writes the pipeline as JSON to w.
func (p *Pipeline) Save(w io.Writer) error {
	data, err := p.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SaveFile writes the pipeline to a JSON file.
func (p *Pipeline) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadPipeline reads a pipeline saved with Save.
func LoadPipeline(r io.Reader) (*Pipeline, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	p := &Pipeline{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadPipelineFile reads a pipeline from a JSON file.
func LoadPipelineFile(path string) (*Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadPipeline(f)
}
