package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gbdt"
)

// fixture is the shared fitted artefact set: two versions of one pipeline
// (v2 emits one fewer output column, so responses are distinguishable), a
// GBDT model per version, and the dataset. Fitting is expensive, so it runs
// once per test binary.
type fixture struct {
	p1, p2 *core.Pipeline
	m1, m2 *gbdt.Model
	ds     *datagen.Dataset
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func buildFixture() {
	fixOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Spec{
			Name: "serve-test", Train: 2000, Test: 400, Dim: 8,
			Interactions: 3, SignalScale: 2.5, Seed: 61,
		})
		if err != nil {
			fixErr = err
			return
		}
		p1, _, err := core.Fit(context.Background(), ds.Train, nil, core.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		if p1.NumFeatures() < 2 {
			fixErr = fmt.Errorf("fixture pipeline too narrow: %d outputs", p1.NumFeatures())
			return
		}
		p2 := &core.Pipeline{
			OriginalNames: p1.OriginalNames,
			Nodes:         p1.Nodes,
			Output:        p1.Output[:p1.NumFeatures()-1],
		}
		trainModel := func(p *core.Pipeline) (*gbdt.Model, error) {
			tr, err := p.Transform(ds.Train)
			if err != nil {
				return nil, err
			}
			cols := make([][]float64, tr.NumCols())
			for j := range cols {
				cols[j] = tr.Columns[j].Values
			}
			cfg := gbdt.DefaultConfig()
			cfg.NumTrees = 20
			return gbdt.Train(cols, tr.Label, tr.Names(), cfg)
		}
		m1, err := trainModel(p1)
		if err != nil {
			fixErr = err
			return
		}
		m2, err := trainModel(p2)
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{p1: p1, p2: p2, m1: m1, m2: m2, ds: ds}
	})
}

func artifacts(t *testing.T) fixture {
	t.Helper()
	buildFixture()
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// newTestServer registers both versions under name "risk" (v1 active) and
// returns the server plus an httptest wrapper.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	f := artifacts(t)
	reg := NewRegistry()
	if err := reg.Register("risk", "v1", f.p1, f.m1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("risk", "v2", f.p2, f.m2); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, opts)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, out interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func testRows(f fixture, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = f.ds.Test.Row(i%f.ds.Test.NumRows(), nil)
	}
	return rows
}

func TestBatchTransformMatchesRowAtATime(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{})

	rows := testRows(f, 32)
	resp := postJSON(t, srv.URL+"/transform", BatchRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out BatchResponse
	decode(t, resp, &out)
	if out.Pipeline != "risk" || out.Version != "v1" {
		t.Errorf("resolved %s@%s, want risk@v1", out.Pipeline, out.Version)
	}
	if len(out.Features) != len(rows) {
		t.Fatalf("got %d feature rows, want %d", len(out.Features), len(rows))
	}
	for i, row := range rows {
		want, err := f.p1.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(out.Features[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d feature %d: batched %v != row-at-a-time %v",
					i, j, out.Features[i][j], want[j])
			}
		}
	}
}

func TestBatchPredict(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{})

	rows := testRows(f, 16)
	resp := postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows, ReturnFeatures: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out BatchResponse
	decode(t, resp, &out)
	if len(out.Scores) != len(rows) || len(out.Features) != len(rows) {
		t.Fatalf("got %d scores / %d features, want %d", len(out.Scores), len(out.Features), len(rows))
	}
	for i, row := range rows {
		feats, err := f.p1.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		want := f.m1.PredictRow(feats)
		if out.Scores[i] != want {
			t.Fatalf("row %d: score %v, want %v", i, out.Scores[i], want)
		}
		if out.Scores[i] < 0 || out.Scores[i] > 1 {
			t.Fatalf("row %d: score %v not a probability", i, out.Scores[i])
		}
	}
}

func TestVersionPinAndHotSwap(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{})
	rows := testRows(f, 4)

	width := func(req BatchRequest) (string, int) {
		resp := postJSON(t, srv.URL+"/transform", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out BatchResponse
		decode(t, resp, &out)
		return out.Version, len(out.Features[0])
	}

	if v, w := width(BatchRequest{Rows: rows}); v != "v1" || w != f.p1.NumFeatures() {
		t.Errorf("default resolved %s width %d, want v1 width %d", v, w, f.p1.NumFeatures())
	}
	if v, w := width(BatchRequest{Rows: rows, Version: "v2"}); v != "v2" || w != f.p2.NumFeatures() {
		t.Errorf("pinned v2 resolved %s width %d, want v2 width %d", v, w, f.p2.NumFeatures())
	}

	// Hot-swap via the admin endpoint, then the default must move to v2
	// while an explicit v1 pin still works.
	resp := postJSON(t, srv.URL+"/admin/activate", map[string]string{"pipeline": "risk", "version": "v2"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activate status %d", resp.StatusCode)
	}
	if v, _ := width(BatchRequest{Rows: rows}); v != "v2" {
		t.Errorf("after activate, default resolved %s, want v2", v)
	}
	if v, _ := width(BatchRequest{Rows: rows, Version: "v1"}); v != "v1" {
		t.Errorf("after activate, pinned v1 resolved %s", v)
	}
}

func TestBatchErrorPaths(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{MaxBatch: 8})
	rows := testRows(f, 2)

	cases := []struct {
		name string
		path string
		body interface{}
		want int
	}{
		{"unknown pipeline", "/transform", BatchRequest{Pipeline: "nope", Rows: rows}, http.StatusNotFound},
		{"unknown version", "/transform", BatchRequest{Version: "v99", Rows: rows}, http.StatusNotFound},
		{"empty rows", "/transform", BatchRequest{}, http.StatusBadRequest},
		{"oversized batch", "/transform", BatchRequest{Rows: testRows(f, 9)}, http.StatusRequestEntityTooLarge},
		{"ragged row", "/transform", BatchRequest{Rows: [][]float64{{1}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/transform", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Oversized body is rejected before the row array is materialised.
	reg0 := NewRegistry()
	if err := reg0.Register("risk", "v1", f.p1, nil); err != nil {
		t.Fatal(err)
	}
	small := httptest.NewServer(NewServer(reg0, Options{MaxBodyBytes: 256}))
	defer small.Close()
	resp = postJSON(t, small.URL+"/transform", BatchRequest{Rows: testRows(f, 8)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// /predict against a model-less version.
	reg := NewRegistry()
	if err := reg.Register("bare", "v1", f.p1, nil); err != nil {
		t.Fatal(err)
	}
	bare := httptest.NewServer(NewServer(reg, Options{}))
	defer bare.Close()
	resp = postJSON(t, bare.URL+"/predict", BatchRequest{Rows: rows})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("predict without model: status %d, want 400", resp.StatusCode)
	}
}

func TestScoreBackCompat(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{})
	row := f.ds.Test.Row(0, nil)

	resp := postJSON(t, srv.URL+"/score", ScoreRequest{Row: row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ScoreResponse
	decode(t, resp, &out)
	if len(out.Features) != f.p1.NumFeatures() {
		t.Errorf("got %d features, want %d", len(out.Features), f.p1.NumFeatures())
	}
	if out.Score == nil || *out.Score < 0 || *out.Score > 1 {
		t.Errorf("score = %v, want probability", out.Score)
	}

	// Named-values form must agree with the dense form.
	values := map[string]float64{}
	for i, name := range f.p1.OriginalNames {
		values[name] = row[i]
	}
	resp = postJSON(t, srv.URL+"/score", ScoreRequest{Values: values})
	var out2 ScoreResponse
	decode(t, resp, &out2)
	for i := range out.Features {
		if out.Features[i] != out2.Features[i] {
			t.Fatalf("feature %d: dense %v != named %v", i, out.Features[i], out2.Features[i])
		}
	}

	// Error paths preserved from the v1 service.
	for i, body := range []interface{}{
		ScoreRequest{},                                    // neither row nor values
		ScoreRequest{Row: []float64{1}},                   // wrong width
		ScoreRequest{Values: map[string]float64{"x0": 1}}, // incomplete values
	} {
		resp := postJSON(t, srv.URL+"/score", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func TestFeatureCache(t *testing.T) {
	f := artifacts(t)
	s, srv := newTestServer(t, Options{CacheSize: 128})
	rows := testRows(f, 8)

	var first, second BatchResponse
	resp := postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows, ReturnFeatures: true})
	decode(t, resp, &first)
	resp = postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows, ReturnFeatures: true})
	decode(t, resp, &second)

	for i := range rows {
		if first.Scores[i] != second.Scores[i] {
			t.Fatalf("row %d: cached score %v != fresh %v", i, second.Scores[i], first.Scores[i])
		}
		for j := range first.Features[i] {
			if math.Float64bits(first.Features[i][j]) != math.Float64bits(second.Features[i][j]) {
				t.Fatalf("row %d feature %d: cache changed the result", i, j)
			}
		}
	}
	st := s.cache.Stats()
	if st.Hits < uint64(len(rows)) {
		t.Errorf("cache hits = %d, want >= %d", st.Hits, len(rows))
	}
	if st.Size == 0 || st.Capacity != 128 {
		t.Errorf("cache stats = %+v", st)
	}

	// The same raw row through a pinned different version must not reuse the
	// other version's entry: v2 emits a different width.
	resp = postJSON(t, srv.URL+"/transform", BatchRequest{Version: "v2", Rows: rows[:1]})
	var v2out BatchResponse
	decode(t, resp, &v2out)
	if len(v2out.Features[0]) != f.p2.NumFeatures() {
		t.Errorf("v2 via cache path returned width %d, want %d",
			len(v2out.Features[0]), f.p2.NumFeatures())
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewFeatureCache(2)
	e := &Entry{Name: "n", Version: "v"}
	rows := [][]float64{{1}, {2}, {3}}
	for _, r := range rows {
		c.Put(cacheKey(e, r), r, []float64{r[0] * 10}, nil)
	}
	st := c.Stats()
	if st.Size != 2 {
		t.Errorf("size %d after eviction, want 2", st.Size)
	}
	// Oldest entry evicted, newest present.
	if _, ok := c.Get(cacheKey(e, rows[0]), rows[0]); ok {
		t.Error("evicted entry still served")
	}
	if _, ok := c.Get(cacheKey(e, rows[2]), rows[2]); !ok {
		t.Error("fresh entry missing")
	}
	// Nil cache (disabled) is safe to use.
	var nilCache *FeatureCache
	nilCache.Put(1, rows[0], nil, nil)
	if _, ok := nilCache.Get(1, rows[0]); ok {
		t.Error("nil cache returned a hit")
	}
}

// TestCacheKeyIdentitySeparation pins the length-suffixing: (name, version)
// pairs whose concatenations coincide must not share a key.
func TestCacheKeyIdentitySeparation(t *testing.T) {
	row := []float64{1, 2, 3}
	a := cacheKey(&Entry{Name: "risk@eu", Version: "v1"}, row)
	b := cacheKey(&Entry{Name: "risk", Version: "eu@v1"}, row)
	if a == b {
		t.Error("ambiguous name/version split produced the same cache key")
	}
	c := cacheKey(&Entry{Name: "risk@eu", Version: "v1"}, row)
	if a != c {
		t.Error("cache key not deterministic")
	}
}

// TestCacheConcurrentGetPut exercises simultaneous hits, misses and
// replacements on one key; run with -race.
func TestCacheConcurrentGetPut(t *testing.T) {
	c := NewFeatureCache(64)
	e := &Entry{Name: "n", Version: "v"}
	row := []float64{1, 2}
	key := cacheKey(e, row)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			score := float64(g)
			for i := 0; i < 500; i++ {
				c.Put(key, row, []float64{3, 4}, &score)
				if ent, ok := c.Get(key, row); ok && len(ent.features) != 2 {
					t.Error("torn cache entry")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestIntrospectionEndpoints(t *testing.T) {
	f := artifacts(t)
	_, srv := newTestServer(t, Options{})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/schema?version=v2")
	if err != nil {
		t.Fatal(err)
	}
	var schema schemaResponse
	decode(t, resp, &schema)
	if schema.Version != "v2" || len(schema.Inputs) != len(f.p2.OriginalNames) ||
		len(schema.Outputs) != f.p2.NumFeatures() || !schema.HasModel {
		t.Errorf("schema = %+v", schema)
	}

	resp, err = http.Get(srv.URL + "/pipelines")
	if err != nil {
		t.Fatal(err)
	}
	var infos []PipelineInfo
	decode(t, resp, &infos)
	if len(infos) != 1 || infos[0].Name != "risk" || len(infos[0].Versions) != 2 ||
		infos[0].Active != "v1" || !infos[0].HasModel {
		t.Errorf("pipelines = %+v", infos)
	}

	// Traffic, then stats must reflect it.
	rows := testRows(f, 5)
	postJSON(t, srv.URL+"/predict", BatchRequest{Rows: rows}).Body.Close()
	postJSON(t, srv.URL+"/transform", BatchRequest{Pipeline: "nope", Rows: rows}).Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decode(t, resp, &stats)
	if stats.Requests < 2 || stats.Errors < 1 || stats.Rows < 5 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Latency.Samples == 0 || stats.Latency.P99us < stats.Latency.P50us {
		t.Errorf("latency = %+v", stats.Latency)
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route status %d, want 404", resp.StatusCode)
	}
}

func TestRegistryValidation(t *testing.T) {
	f := artifacts(t)
	reg := NewRegistry()
	if err := reg.Register("", "v1", f.p1, nil); err == nil {
		t.Error("accepted empty name")
	}
	if err := reg.Register("x", "v1", nil, nil); err == nil {
		t.Error("accepted nil pipeline")
	}
	if err := reg.Register("x", "v1", f.p1, f.m2); err == nil {
		t.Error("accepted model/pipeline width mismatch")
	}
	if err := reg.Register("x", "v1", f.p1, f.m1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("x", "v1", f.p1, f.m1); err == nil {
		t.Error("accepted duplicate (name, version)")
	}
	if err := reg.Activate("x", "v9"); err == nil {
		t.Error("activated unknown version")
	}
	if err := reg.Activate("y", "v1"); err == nil {
		t.Error("activated unknown pipeline")
	}
	if _, err := reg.Get("", ""); err != nil {
		t.Errorf("single-pipeline default lookup failed: %v", err)
	}
	if err := reg.Register("second", "v1", f.p1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("", ""); err == nil {
		t.Error("ambiguous default lookup succeeded with two pipelines")
	}
}

func TestLoadDir(t *testing.T) {
	f := artifacts(t)
	dir := t.TempDir()
	write := func(name, version string, p *core.Pipeline, m *gbdt.Model) {
		t.Helper()
		vdir := filepath.Join(dir, name, version)
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := p.SaveFile(filepath.Join(vdir, "pipeline.json")); err != nil {
			t.Fatal(err)
		}
		if m != nil {
			if err := m.SaveFile(filepath.Join(vdir, "model.json")); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("risk", "v1", f.p1, f.m1)
	write("risk", "v2", f.p2, f.m2)
	write("plain", "v1", f.p1, nil)

	reg := NewRegistry()
	n, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("loaded %d entries, want 3", n)
	}
	// Lexically greatest version is active.
	e, err := reg.Get("risk", "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != "v2" || e.Model == nil {
		t.Errorf("active risk = %s (model %v), want v2 with model", e.Version, e.Model != nil)
	}
	e, err = reg.Get("plain", "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Model != nil {
		t.Error("plain pipeline unexpectedly has a model")
	}
	// A loaded pipeline must still score correctly.
	row := f.ds.Test.Row(0, nil)
	got, err := e.Pipeline.TransformRow(row)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.p1.TransformRow(row)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("feature %d: loaded %v != original %v", i, got[i], want[i])
		}
	}

	if _, err := reg.LoadDir(filepath.Join(dir, "does-not-exist")); err == nil {
		t.Error("LoadDir accepted a missing directory")
	}
}
