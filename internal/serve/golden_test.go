package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gbdt"
	"repro/internal/operators"
)

// literalServer serves a hand-written pipeline and a hand-written squared
// model, so what it answers is exact arithmetic on any machine: outputs
// a*c, a/b and a, scored as 0.5 plus one leaf of each of two stumps. The
// name of the product needs every escape a reply can need.
func literalServer(t testing.TB, leaves [2]float64) (*Server, *core.Pipeline, *gbdt.Model) {
	t.Helper()
	fit := func(op operators.Operator) operators.Applier {
		ap, err := op.Fit(make([][]float64, 2))
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	prod := `a*c <&> "é"`
	p := &core.Pipeline{
		OriginalNames: []string{"a", "b", "c"},
		Nodes: []core.FeatureNode{
			{Name: prod, Inputs: []string{"a", "c"}, Applier: fit(operators.Mul())},
			{Name: "(a / b)", Inputs: []string{"a", "b"}, Applier: fit(operators.Div())},
		},
		Output: []string{prod, "(a / b)", "a"},
	}
	stump := func(feature int, at, left, right float64) *gbdt.Tree {
		return &gbdt.Tree{Nodes: []gbdt.Node{
			{Feature: feature, Threshold: at, Left: 1, Right: 2},
			{Feature: -1, Value: left},
			{Feature: -1, Value: right},
		}}
	}
	m := &gbdt.Model{
		Trees:     []*gbdt.Tree{stump(0, 1, 0.25, leaves[0]), stump(2, 0, -0.125, leaves[1])},
		Config:    gbdt.Config{Objective: gbdt.Squared},
		BaseScore: 0.5,
		NumFeat:   3,
	}
	reg := NewRegistry()
	if err := reg.Register("lit", "v1", p, m); err != nil {
		t.Fatal(err)
	}
	return NewServer(reg, Options{}), p, m
}

// TestGoldenReplies: a well-formed request is answered with the bytes the
// server answered it with before the batch endpoints had their own codec.
// testdata/golden_*.json were written by this test at the commit before, by
// encoding/json (SERVE_WRITE_GOLDEN=1 writes them again). The rows put
// features on both sides of the 1e-6 and 1e21 format switches, at -0 and at a
// subnormal.
func TestGoldenReplies(t *testing.T) {
	s, _, _ := literalServer(t, [2]float64{3, 1e-7})
	const body = `{"rows":[[1.5,2,4],[1e-7,3,1],[-2.5e10,1e-320,1e12],[0,-1,5],[1e-3,1e3,1e-3],[3,0,2.5e-324]],"return_features":true}`
	for _, endpoint := range []string{"transform", "predict"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+endpoint, bytes.NewReader([]byte(body))))
		got, _ := io.ReadAll(rec.Result().Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/%s: status %d: %s", endpoint, rec.Code, got)
		}
		path := filepath.Join("testdata", "golden_"+endpoint+".json")
		if os.Getenv("SERVE_WRITE_GOLDEN") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("/%s answered\n%s\nwant\n%s", endpoint, got, want)
		}
	}
}
