package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/operators"
)

// TestZeroDenominatorRowServes: a row that zeroes a selected div node's
// denominator is an ordinary request. Every endpoint answers 200 with a body
// that decodes, the ratio is the 0 the fit trained the model on — what the
// offline transform says too — and /stats counts no failure. (Unclamped, the
// feature was NaN, which encoding/json refuses after the 200 header is out.)
func TestZeroDenominatorRowServes(t *testing.T) {
	div, err := operators.Div().Fit(make([][]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{
		OriginalNames: []string{"a", "b"},
		Nodes:         []core.FeatureNode{{Name: "(a / b)", Inputs: []string{"a", "b"}, Applier: div}},
		Output:        []string{"(a / b)", "a"},
	}
	rng := rand.New(rand.NewSource(4))
	train := &frame.Frame{}
	a, b := make([]float64, 300), make([]float64, 300)
	train.Label = make([]float64, 300)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), float64(rng.Intn(4))
		if b[i] != 0 && a[i]/b[i] > 0 {
			train.Label[i] = 1
		}
	}
	train.AddColumn("a", a)
	train.AddColumn("b", b)
	tr, err := p.Transform(train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumTrees = 5
	m, err := gbdt.Train([][]float64{tr.Col(0), tr.Col(1)}, tr.Label, tr.Names(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("ratio", "v1", p, m); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(NewServer(reg, Options{}))
	t.Cleanup(hs.Close)
	srv := hs.URL

	row := []float64{3, 0}
	want, err := p.TransformBatch([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	if want[0][0] != 0 || want[0][1] != 3 {
		t.Fatalf("offline features %v, want [0 3]", want[0])
	}
	check := func(endpoint string, got []float64) {
		t.Helper()
		if len(got) != 2 || got[0] != want[0][0] || got[1] != want[0][1] {
			t.Errorf("%s: features %v, want %v", endpoint, got, want[0])
		}
	}
	for _, endpoint := range []string{"/transform", "/predict"} {
		resp := postJSON(t, srv+endpoint, BatchRequest{Rows: [][]float64{row}, ReturnFeatures: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", endpoint, resp.StatusCode)
		}
		var out BatchResponse
		decode(t, resp, &out)
		if len(out.Features) != 1 {
			t.Fatalf("%s: %d feature rows", endpoint, len(out.Features))
		}
		check(endpoint, out.Features[0])
		if endpoint == "/predict" && (len(out.Scores) != 1 || out.Scores[0] != m.PredictRow(want[0])) {
			t.Errorf("/predict: scores %v, want %v", out.Scores, m.PredictRow(want[0]))
		}
	}
	resp := postJSON(t, srv+"/score", ScoreRequest{Row: row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/score: status %d", resp.StatusCode)
	}
	var scored ScoreResponse
	decode(t, resp, &scored)
	check("/score", scored.Features)

	resp, err = http.Get(srv + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decode(t, resp, &stats)
	if stats.Requests != 3 || stats.Errors != 0 {
		t.Errorf("stats count %d requests, %d errors; want 3 and 0", stats.Requests, stats.Errors)
	}
}

// TestLoadDirRejectsMalformedProgram: a pipeline file whose nodes are not a
// program — or whose bin cuts are out of order, which would load and answer a
// wrong feature on every request — fails the warm load, named, instead of
// registering a version.
func TestLoadDirRejectsMalformedProgram(t *testing.T) {
	for _, body := range []string{
		`{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a"],"kind":"stateless","data":{"op":"add"}}],"output":["s"]}`,
		`{"version":1,"original_names":["a","b"],"nodes":[{"name":"s","inputs":["a"],"kind":"bin","data":{"cuts":[3,1,2],"name":"bin_freq"}}],"output":["s"]}`,
	} {
		dir := t.TempDir()
		vdir := filepath.Join(dir, "bad", "v1")
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(vdir, "pipeline.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		n, err := reg.LoadDir(dir)
		if err == nil || n != 0 {
			t.Fatalf("LoadDir registered %d entries, error %v", n, err)
		}
		if !strings.HasPrefix(err.Error(), "serve: load bad@v1: ") || !strings.Contains(err.Error(), `node "s"`) {
			t.Errorf("error %q does not place the failure at bad@v1, node \"s\"", err)
		}
		if _, err := reg.Get("bad", ""); err == nil {
			t.Error("the malformed pipeline is registered")
		}
	}
}
