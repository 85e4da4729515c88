package gbdt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// modelJSON is the on-disk representation of a trained booster.
type modelJSON struct {
	Version    int       `json:"version"`
	Objective  Objective `json:"objective"`
	BaseScore  float64   `json:"base_score"`
	NumFeat    int       `json:"num_feat"`
	Names      []string  `json:"names,omitempty"`
	NumClass   int       `json:"num_class,omitempty"`
	BaseScores []float64 `json:"base_scores,omitempty"`
	Trees      [][]Node  `json:"trees"`
}

const modelVersion = 1

// MarshalJSON serialises the model (trees, base score, objective) so a
// booster trained offline can be loaded for serving.
func (m *Model) MarshalJSON() ([]byte, error) {
	out := modelJSON{
		Version:    modelVersion,
		Objective:  m.Config.Objective,
		BaseScore:  m.BaseScore,
		NumFeat:    m.NumFeat,
		Names:      m.Names,
		NumClass:   m.Config.NumClass,
		BaseScores: m.BaseScores,
	}
	for _, t := range m.Trees {
		out.Trees = append(out.Trees, t.Nodes)
	}
	return json.Marshal(out)
}

// UnmarshalJSON reconstructs a model saved with MarshalJSON. Only the fields
// needed for prediction, paths and importances are restored; training
// hyper-parameters are not round-tripped.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("gbdt: unmarshal model: %w", err)
	}
	if in.Version != modelVersion {
		return fmt.Errorf("gbdt: unsupported model version %d (want %d)", in.Version, modelVersion)
	}
	if in.NumFeat <= 0 {
		return fmt.Errorf("gbdt: model has invalid feature count %d", in.NumFeat)
	}
	if err := in.Objective.check(); err != nil {
		return err
	}
	if in.Objective == Softmax {
		if in.NumClass < 2 {
			return fmt.Errorf("gbdt: softmax model has invalid class count %d", in.NumClass)
		}
		if len(in.BaseScores) != in.NumClass {
			return fmt.Errorf("gbdt: softmax model has %d base scores for %d classes", len(in.BaseScores), in.NumClass)
		}
		if len(in.Trees)%in.NumClass != 0 {
			return fmt.Errorf("gbdt: softmax model has %d trees, not a multiple of %d classes", len(in.Trees), in.NumClass)
		}
	}
	m.Config = Config{Objective: in.Objective, NumClass: in.NumClass}
	m.BaseScore = in.BaseScore
	m.NumFeat = in.NumFeat
	m.Names = in.Names
	m.BaseScores = in.BaseScores
	m.Trees = m.Trees[:0]
	for ti, nodes := range in.Trees {
		if err := validateTree(nodes, in.NumFeat); err != nil {
			return fmt.Errorf("gbdt: tree %d: %w", ti, err)
		}
		m.Trees = append(m.Trees, &Tree{Nodes: nodes})
	}
	return nil
}

// validateTree checks node indices and feature references so a corrupted
// file cannot cause out-of-range traversal.
func validateTree(nodes []Node, numFeat int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("empty tree")
	}
	for i := range nodes {
		n := &nodes[i]
		if n.IsLeaf() {
			continue
		}
		if n.Feature >= numFeat {
			return fmt.Errorf("node %d splits on feature %d of %d", i, n.Feature, numFeat)
		}
		if n.Left <= i || n.Left >= len(nodes) || n.Right <= i || n.Right >= len(nodes) {
			return fmt.Errorf("node %d has invalid children (%d, %d)", i, n.Left, n.Right)
		}
	}
	return nil
}

// Save writes the model as JSON to w.
func (m *Model) Save(w io.Writer) error {
	data, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SaveFile writes the model to a JSON file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gbdt: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// Load reads a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gbdt: load model: %w", err)
	}
	m := &Model{}
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads a model from a JSON file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	defer f.Close()
	return Load(f)
}
