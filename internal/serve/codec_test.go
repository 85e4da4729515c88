package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire/wiretest"
)

// batchBodies is the request grammar by example, and FuzzBatchDecode's
// checked-in corpus: what decodeBatch accepts (ok) and what it refuses, each
// the way json.Unmarshal into a BatchRequest does.
var batchBodies = []struct {
	name string
	body string
	ok   bool
}{
	{"plain", `{"pipeline":"risk","version":"v2","rows":[[1,2.5],[-3e-7,4E+2]],"return_features":true}`, true},
	{"whitespace-everywhere", " \t\r\n{ \"rows\" \n: [ [ 1 , 2 ] ,\t[ ] , [3]\r\n] , \"version\" : \"v1\" } \n", true},
	{"empty-object", `{}`, true},
	{"top-level-null", ` null `, true},
	{"top-level-array", `[[1,2]]`, false},
	{"top-level-number", `1`, false},
	{"empty-body", ``, false},
	{"unterminated", `{"rows":[[1,2]`, false},
	{"trailing-garbage", `{"rows":[[1]]} x`, false},
	{"trailing-object", `{"rows":[[1]]}{}`, false},
	{"trailing-comma", `{"rows":[[1]],}`, false},
	{"case-folded-keys", `{"ROWS":[[1]],"Pipeline":"p","VERSION":"v","Return_Features":true}`, true},
	{"long-s-key", "{\"rowſ\":[[7]],\"verſion\":\"v\"}", true},
	{"escaped-key", `{"\u0072ows":[[1,2]],"p\u0049peline":"p","\u0072ow\u017f":[[3]]}`, true},
	{"bad-escape-in-key", `{"ro\xws":[[1]]}`, false},
	{"duplicate-keys", `{"pipeline":"a","rows":[[1,2],[3]],"pipeline":"b","rows":[[4]]}`, true},
	{"duplicate-rows-with-nulls", `{"rows":[[5,6],[7]],"Rows":[[null,null],null,[null]]}`, true},
	{"duplicate-rows-then-null", `{"rows":[[5,6]],"rows":null}`, true},
	{"null-string-keeps-value", `{"pipeline":"a","pipeline":null,"return_features":true,"return_features":null}`, true},
	{"nulls-at-every-level", `{"pipeline":null,"version":null,"rows":[null,[null,1],[]],"return_features":null}`, true},
	{"rows-null", `{"rows":null}`, true},
	{"rows-empty", `{"rows":[]}`, true},
	{"ragged-and-empty-rows", `{"rows":[[1,2,3],[],[4]]}`, true},
	{"unknown-keys-nested", `{"meta":{"a":[1,{"b":null,"c":"}]"}],"d":"\"\\"},"rows":[[1]],"n":-0.5e+3,"t":true,"s":"x","z":null}`, true},
	{"unknown-key-bad-value", `{"meta":{"a":[1,}],"rows":[[1]]}`, false},
	{"unknown-key-bad-literal", `{"meta":tru,"rows":[[1]]}`, false},
	{"unknown-key-mismatched", `{"meta":[1},"rows":[[1]]}`, false},
	{"unknown-key-no-value", `{"meta":,"rows":[[1]]}`, false},
	{"unknown-key-control-char", "{\"meta\":\"a\nb\",\"rows\":[[1]]}", false},
	{"escaped-strings", `{"pipeline":"a\"b\\c\/dé😀\n","version":"\ud800"}`, true},
	{"non-utf8-string", "{\"pipeline\":\"a\xffb\",\"rows\":[[1]]}", true},
	{"non-utf8-unknown-key", "{\"k\xfe\":\"\xc3\x28\",\"rows\":[[1]]}", true},
	{"control-char-in-string", "{\"pipeline\":\"a\tb\"}", false},
	{"bad-escape-in-string", `{"pipeline":"a\qb"}`, false},
	{"unterminated-string", `{"pipeline":"abc`, false},
	{"string-for-rows", `{"rows":"[[1]]"}`, false},
	{"object-for-rows", `{"rows":{}}`, false},
	{"number-for-row", `{"rows":[1,2]}`, false},
	{"string-for-number", `{"rows":[["1"]]}`, false},
	{"bool-for-number", `{"rows":[[true]]}`, false},
	{"nested-too-deep", `{"rows":[[[1]]]}`, false},
	{"number-for-string", `{"pipeline":7}`, false},
	{"string-for-bool", `{"return_features":"true"}`, false},
	{"number-for-bool", `{"return_features":1}`, false},
	{"leading-zero", `{"rows":[[01]]}`, false},
	{"bare-point", `{"rows":[[1.]]}`, false},
	{"leading-point", `{"rows":[[.5]]}`, false},
	{"plus-sign", `{"rows":[[+1]]}`, false},
	{"bare-minus", `{"rows":[[-]]}`, false},
	{"bare-exponent", `{"rows":[[1e]]}`, false},
	{"hex", `{"rows":[[0x10]]}`, false},
	{"underscore", `{"rows":[[1_000]]}`, false},
	{"nan", `{"rows":[[NaN]]}`, false},
	{"infinity", `{"rows":[[Infinity]]}`, false},
	{"minus-infinity", `{"rows":[[-Infinity]]}`, false},
	{"out-of-range", `{"rows":[[1e999]]}`, false},
	{"out-of-range-unknown-key", `{"x":1e999,"rows":[[1]]}`, true},
	{"underflow", `{"rows":[[1e-999,-1e-999]]}`, true},
	{"number-forms", `{"rows":[[0,-0,0.0,-0.0e0,1E5,1e+5,1e-5,123456789012345678901234567890,0.1234567890123456789012345678901234567890,4.9e-324,1.7976931348623157e308]]}`, true},
	{"missing-colon", `{"rows" [[1]]}`, false},
	{"missing-comma", `{"rows":[[1] [2]]}`, false},
	{"double-comma", `{"rows":[[1,,2]]}`, false},
	{"unquoted-key", `{rows:[[1]]}`, false},
	{"byte-order-mark", "\xef\xbb\xbf{\"rows\":[[1]]}", false},
}

func batchSeedPath(name string) string {
	return filepath.Join("testdata", "fuzz", "FuzzBatchDecode", name)
}

// TestBatchDecodeSeedCorpus keeps FuzzBatchDecode's checked-in corpus
// (regenerate with SERVE_WRITE_CORPUS=1 go test ./internal/serve -run
// TestBatchDecodeSeedCorpus) equal to the table above, and the table true:
// plain `go test` runs every seed through the fuzz target's comparison with
// encoding/json, this test says which side of it each one is on.
func TestBatchDecodeSeedCorpus(t *testing.T) {
	for _, tc := range batchBodies {
		if os.Getenv("SERVE_WRITE_CORPUS") == "1" {
			wiretest.WriteSeed(t, batchSeedPath(tc.name), []byte(tc.body))
			continue
		}
		if seed := wiretest.ReadSeed(t, batchSeedPath(tc.name)); string(seed) != tc.body {
			t.Errorf("seed %s is not the table's entry", tc.name)
		}
		_, err := decodeBatch([]byte(tc.body), len(tc.body), new(batchBuf))
		if (err == nil) != tc.ok {
			t.Errorf("%s: accepted = %v (error %v), want %v", tc.name, err == nil, err, tc.ok)
		}
	}
}

// oracleDecode is what encoding/json makes of body. One habit of it is not
// the contract: an array decoded into a slice that already has elements — a
// second "rows" key — leaves a null number at the stale value of the earlier
// array, not at 0. The oracle's rows are therefore those of the last "rows"
// member decoded on its own.
func oracleDecode(t testing.TB, body []byte) (BatchRequest, error) {
	var want BatchRequest
	if err := json.Unmarshal(body, &want); err != nil {
		return BatchRequest{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return want, nil // null
	}
	var last json.RawMessage
	seen := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
		if strings.EqualFold(key.(string), "rows") {
			last, seen = value, seen+1
		}
	}
	if seen > 1 {
		want.Rows = nil
		if err := json.Unmarshal(last, &want.Rows); err != nil {
			t.Fatal(err)
		}
	}
	return want, nil
}

// checkDecode holds decodeBatch to its contract on one body: it rejects what
// the oracle rejects; it accepts what the oracle accepts, with the same
// request down to nil against empty and the sign of zero; and the rows it
// returns are consecutive views of buf.vals, one block whatever the batch.
func checkDecode(t testing.TB, body []byte) {
	buf := new(batchBuf)
	got, err := decodeBatch(body, len(body), buf)
	want, wantErr := oracleDecode(t, body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: scanner error %v, encoding/json error %v", body, err, wantErr)
	}
	if err != nil {
		if !reflect.DeepEqual(got, BatchRequest{}) {
			t.Fatalf("body %q: a refused body left %+v behind", body, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: scanner %#v, encoding/json %#v", body, got, want)
	}
	at := 0
	for i, row := range got.Rows {
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want.Rows[i][j]) {
				t.Fatalf("body %q: row %d value %d is %v, encoding/json has %v", body, i, j, v, want.Rows[i][j])
			}
		}
		if row == nil {
			continue
		}
		if cap(row) != len(row) || at+len(row) > len(buf.vals) || (len(row) > 0 && &row[0] != &buf.vals[at]) {
			t.Fatalf("body %q: row %d is not vals[%d:%d]", body, i, at, at+len(row))
		}
		at += len(row)
	}
	if got.Rows != nil && at != len(buf.vals) {
		t.Fatalf("body %q: the block holds %d values, the rows %d", body, len(buf.vals), at)
	}
	if 2*len(buf.vals) > len(body) || 3*len(buf.rows) > len(body) {
		t.Fatalf("body of %d bytes: %d values, %d rows", len(body), len(buf.vals), len(buf.rows))
	}
}

// FuzzBatchDecode is the HTTP trust boundary of /transform and /predict,
// differential against encoding/json: see checkDecode.
func FuzzBatchDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestBatchDecodeRandomBodies drives checkDecode with bodies assembled from
// the grammar's own pieces, valid and not, so that plain `go test` covers
// orders the table does not.
func TestBatchDecodeRandomBodies(t *testing.T) {
	pieces := []string{
		`{`, `}`, `[`, `]`, `[[`, `]]`, `,`, `:`, ` `, "\n", `null`, `true`, `false`,
		`"rows"`, `"Rows"`, `"pipeline"`, `"version"`, `"return_features"`, `"x"`, `"a\"b"`,
		`1`, `-0`, `2.5e-3`, `1e999`, `01`, `{"rows":[[1,2],[3,4]]`, `"rows":[[`, `"rows":[`,
	}
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 20000; n++ {
		var body []byte
		for k := rng.Intn(12); k >= 0; k-- {
			body = append(body, pieces[rng.Intn(len(pieces))]...)
		}
		checkDecode(t, body)
	}
}

// TestBatchDecodeDepthLimit: encoding/json refuses a document nested deeper
// than 10000 levels; an unknown key's value is held to the same limit, the
// request object counting as the first level.
func TestBatchDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{maxNesting - 2, maxNesting - 1, maxNesting} {
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"rows":[[1]]}`
		checkDecode(t, []byte(body))
	}
}

// TestBatchDecodeStopsAtMaxRows: row maxRows+1 ends the scan, whatever
// follows it, and nothing past it is parsed.
func TestBatchDecodeStopsAtMaxRows(t *testing.T) {
	buf := new(batchBuf)
	if _, err := decodeBatch([]byte(`{"rows":[[1],[2],[3]]}`), 3, buf); err != nil {
		t.Fatalf("a batch at the limit: %v", err)
	}
	if _, err := decodeBatch([]byte(`{"rows":[[1],[2],[3],[4`), 3, buf); err != errTooManyRows {
		t.Fatalf("a batch over the limit: error %v, want errTooManyRows", err)
	}
	if _, err := decodeBatch([]byte(`{"rows":[[1],[2],[3],[4]],"rows":[[1]]}`), 3, buf); err != errTooManyRows {
		t.Fatalf("an oversized array before a small one: error %v, want errTooManyRows", err)
	}
}

// TestReplyByteIdentity: appendBatchResponse writes what json.Encoder writes.
func TestReplyByteIdentity(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 1e15, 1e20,
		9.99e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, -1e-6, -9.99e-7,
		9.999999999999999e20, 1e21, 1.0000000000000001e21, -1e21, 1e22, 1e100, -1e-100,
		1e-7, 1.5e-9, 1e-10, 1.234e-15, 5e-324, tiny, 2 * tiny, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, 1 << 53, 100, 1e6,
	}
	names := []string{"x0", "(x0+x3)", `a<b>&"c"\d`, "é ü 特徴 😀", "tab\there", "line\nfeed\r", "\b\f\x00\x1f\x7f",
		"bad\xffutf8\xc3", "  ", "", "(a / b)"}
	cases := map[string]BatchResponse{
		"bare":               {Pipeline: "risk", Version: "v1"},
		"transform":          {Pipeline: "risk", Version: "v1", Names: names, Features: [][]float64{edge, {1, 2}}},
		"predict":            {Pipeline: "risk", Version: "v1", Scores: edge},
		"predict-features":   {Pipeline: "p", Version: "v", Names: names[:2], Features: [][]float64{{1, 2}}, Scores: []float64{0.25}},
		"multiclass":         {Pipeline: "mc", Version: "v9", Scores: []float64{2, 0}, Probs: [][]float64{{0.1, 0.2, 0.7}, edge}},
		"everything":         {Pipeline: names[2], Version: names[3], Names: names, Features: [][]float64{edge}, Scores: edge, Probs: [][]float64{edge, edge}},
		"empty-not-nil":      {Pipeline: "p", Version: "v", Names: []string{}, Features: [][]float64{}, Scores: []float64{}, Probs: [][]float64{}},
		"nil-and-empty-rows": {Pipeline: "p", Version: "v", Features: [][]float64{nil, {}, {1}}, Probs: [][]float64{{}, nil}},
		"nan-feature":        {Pipeline: "p", Version: "v", Features: [][]float64{{1, math.NaN()}}},
		"inf-score":          {Pipeline: "p", Version: "v", Scores: []float64{1, math.Inf(1)}},
		"minus-inf-prob":     {Pipeline: "p", Version: "v", Scores: []float64{1}, Probs: [][]float64{{math.Inf(-1)}}},
	}
	rng := rand.New(rand.NewSource(24))
	random := make([]float64, 0, 20000)
	for len(random) < cap(random) {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			random = append(random, v, float64(float32(v)), math.Round(v/1e3)/1e3)
		}
	}
	cases["random-bits"] = BatchResponse{Pipeline: "p", Version: "v", Scores: random}

	for name, resp := range cases {
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := appendBatchResponse([]byte("kept:"), &resp)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: appender error %v, encoding/json error %v", name, err, wantErr)
			continue
		}
		if err == nil && string(got) != "kept:"+want.String() {
			t.Errorf("%s: appender wrote\n%s\nencoding/json\n%s", name, got, want.Bytes())
		}
	}
}

// post sends body to the handler without a socket.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestRequestGrammarOverHTTP: the statuses docs/serving.md promises for the
// bodies of its "Request grammar" section.
func TestRequestGrammarOverHTTP(t *testing.T) {
	s, _, _ := literalServer(t, [2]float64{3, 1})
	s.maxBatch = 2
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"plain", `{"rows":[[1,2,3]]}`, http.StatusOK},
		{"folded and unknown keys", `{"Pipeline":"lit","ROWS":[[1,2,3]],"trace_id":{"a":[1,2]}}`, http.StatusOK},
		{"null pipeline is no pipeline", `{"pipeline":null,"version":null,"rows":[[1,2,3]],"return_features":null}`, http.StatusOK},
		{"last rows wins", `{"rows":[[1]],"rows":[[1,2,3],[4,5,6]]}`, http.StatusOK},
		{"null number is 0", `{"rows":[[1,null,3]]}`, http.StatusOK},
		{"trailing data", `{"rows":[[1,2,3]]} {"rows":[[1,2,3]]}`, http.StatusBadRequest},
		{"null body", `null`, http.StatusBadRequest},
		{"null rows", `{"rows":null}`, http.StatusBadRequest},
		{"null row", `{"rows":[null]}`, http.StatusBadRequest},
		{"ragged row", `{"rows":[[1,2,3],[1,2]]}`, http.StatusBadRequest},
		{"NaN", `{"rows":[[1,NaN,3]]}`, http.StatusBadRequest},
		{"overflow", `{"rows":[[1,1e999,3]]}`, http.StatusBadRequest},
		{"leading zero", `{"rows":[[1,02,3]]}`, http.StatusBadRequest},
		{"unknown pipeline", `{"pipeline":"nope","rows":[[1,2,3]]}`, http.StatusNotFound},
		{"one row too many", `{"rows":[[1,2,3],[1,2,3],[1,2,3]]}`, http.StatusRequestEntityTooLarge},
		{"too many rows, then garbage", `{"rows":[[1,2,3],[1,2,3],[1,2,3],[oops`, http.StatusRequestEntityTooLarge},
	} {
		rec := post(s, "/transform", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
		var e errorResponse
		if rec.Code != http.StatusOK && (json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "") {
			t.Errorf("%s: error body %q", tc.name, rec.Body)
		}
	}
}

// TestUnrenderableReplyIsAnError: a squared model whose two leaves are
// MaxFloat64 scores a row +Inf, which JSON cannot carry. The reply is a 500
// with the usual error body, counted as an error — on /predict through the
// appender and on /score through writeJSON. (The status used to be committed
// before the body was encoded: an empty 200, counted as a success.)
func TestUnrenderableReplyIsAnError(t *testing.T) {
	s, p, m := literalServer(t, [2]float64{math.MaxFloat64, math.MaxFloat64})
	feats, err := p.TransformBatch([][]float64{{2, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if score := m.PredictRow(feats[0]); !math.IsInf(score, 1) {
		t.Fatalf("the model scores the row %v, want +Inf", score)
	}
	for i, tc := range []struct{ path, body string }{
		{"/predict", `{"rows":[[2,1,3]]}`},
		{"/score", `{"row":[2,1,3]}`},
	} {
		rec := post(s, tc.path, tc.body)
		var e errorResponse
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("%s: status %d body %q, want a 500 with an error body", tc.path, rec.Code, rec.Body)
		}
		if got := s.metrics.errors.Load(); got != uint64(i+1) {
			t.Errorf("%s: %d errors counted, want %d", tc.path, got, i+1)
		}
	}
	// A finite row is still answered.
	if rec := post(s, "/predict", `{"rows":[[-2,1,3]]}`); rec.Code != http.StatusOK {
		t.Errorf("finite row: status %d (%s)", rec.Code, rec.Body)
	}
}

// allocatedBy is the bytes f allocates, as the runtime counts them.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOversizedBatchStopsAtTheLimit: a body of a million one-value rows
// against MaxBatch 8 is a 413 at its ninth row. Beyond the body itself the
// request allocates next to nothing — no row header per row of the body.
func TestOversizedBatchStopsAtTheLimit(t *testing.T) {
	s, _, _ := literalServer(t, [2]float64{3, 1})
	s.maxBatch = 8
	const rows = 1 << 20
	body := make([]byte, 0, 4*rows+16)
	body = append(body, `{"rows":[`...)
	for i := 0; i < rows; i++ {
		body = append(body, `[1],`...)
	}
	body = append(body, `[1]]}`...)

	var rec *httptest.ResponseRecorder
	allocated := allocatedBy(func() {
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/transform", bytes.NewReader(body)))
	})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if got := s.metrics.errors.Load(); got != 1 {
		t.Errorf("%d errors counted, want 1", got)
	}
	if raceEnabled {
		return
	}
	if limit := uint64(len(body)) + 64<<10; allocated > limit {
		t.Errorf("the request allocated %d bytes for a body of %d, want at most %d", allocated, len(body), limit)
	}
}

// codecBatch is a well-formed rows×width request body and the reply to it.
func codecBatch(rows, width int) ([]byte, BatchResponse) {
	rng := rand.New(rand.NewSource(int64(rows)))
	req := BatchRequest{Rows: make([][]float64, rows)}
	resp := BatchResponse{Pipeline: "bench", Version: "v1", Scores: make([]float64, rows), Features: make([][]float64, rows)}
	for j := 0; j < width; j++ {
		resp.Names = append(resp.Names, fmt.Sprintf("(x%d*x%d)", j, j+1))
	}
	for i := range req.Rows {
		req.Rows[i] = make([]float64, width)
		resp.Features[i] = make([]float64, width)
		for j := range req.Rows[i] {
			req.Rows[i][j] = rng.NormFloat64()
			resp.Features[i][j] = rng.NormFloat64() * rng.NormFloat64()
		}
		resp.Scores[i] = rng.Float64()
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body, resp
}

// TestWarmCodecDoesNotAllocate: with a buffer that has seen a request of the
// same shape, parsing a body and rendering a reply allocate nothing.
func TestWarmCodecDoesNotAllocate(t *testing.T) {
	body, resp := codecBatch(64, 20)
	buf := new(batchBuf)
	run := func() {
		req, err := decodeBatch(body, DefaultMaxBatch, buf)
		if err != nil || len(req.Rows) != 64 {
			t.Fatalf("decode: %d rows, error %v", len(req.Rows), err)
		}
		if buf.out, err = appendBatchResponse(buf.out[:0], &resp); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a warm decode and encode allocate %v times, want 0", allocs)
	}
}

// TestPooledBuffersDoNotAlias: concurrent clients with the cache on, each
// with its own rows; every answer must be the offline answer for the rows
// that were sent, whichever pooled buffer the request was parsed into and
// whoever had it before. Then the first client's rows again: all of them must
// be served from the cache — which has kept its own copy of rows that were
// views of a buffer since reused — with the right features.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	f := artifacts(t)
	s, srv := newTestServer(t, Options{CacheSize: 1 << 14})
	const clients, requests, batch = 6, 25, 16
	rowsOf := func(c, r int) [][]float64 {
		rng := rand.New(rand.NewSource(int64(1000*c + r)))
		rows := make([][]float64, batch+rng.Intn(batch))
		for i := range rows {
			rows[i] = make([]float64, len(f.p1.OriginalNames))
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		return rows
	}
	ask := func(c, r int) error {
		rows := rowsOf(c, r)
		want, err := f.p1.TransformBatch(rows)
		if err != nil {
			return err
		}
		path := [...]string{"/predict", "/transform"}[r%2]
		data, err := json.Marshal(BatchRequest{Rows: rows, ReturnFeatures: true})
		if err != nil {
			return err
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var out BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK || len(out.Features) != len(rows) {
			return fmt.Errorf("client %d request %d: status %d, %d feature rows for %d rows", c, r, resp.StatusCode, len(out.Features), len(rows))
		}
		for i := range rows {
			if !reflect.DeepEqual(out.Features[i], want[i]) {
				return fmt.Errorf("client %d request %d row %d: features %v, offline %v", c, r, i, out.Features[i], want[i])
			}
			if path == "/predict" && out.Scores[i] != f.m1.PredictRow(want[i]) {
				return fmt.Errorf("client %d request %d row %d: score %v, offline %v", c, r, i, out.Scores[i], f.m1.PredictRow(want[i]))
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				if err := ask(c, r%(requests/2)); err != nil { // the second half repeats the first: hits
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	before := s.cache.Stats()
	sent := 0
	for r := 0; r < requests/2; r++ {
		if err := ask(0, r); err != nil {
			t.Fatal(err)
		}
		sent += len(rowsOf(0, r))
	}
	after := s.cache.Stats()
	if hits := after.Hits - before.Hits; hits != uint64(sent) || after.Misses != before.Misses {
		t.Errorf("re-requesting client 0's %d rows: %d hits, %d misses; want all hits", sent, hits, after.Misses-before.Misses)
	}
}

// BenchmarkBatchCodec times the two halves of the batch codec alone, at the
// benchmark's request shape (64×20) and at a full default batch (4096×20),
// beside encoding/json doing the same job — the serving path's codec before
// PR 24, and the figures docs/performance.md records for it.
func BenchmarkBatchCodec(b *testing.B) {
	for _, shape := range [][2]int{{64, 20}, {4096, 20}} {
		body, resp := codecBatch(shape[0], shape[1])
		name := fmt.Sprintf("%dx%d", shape[0], shape[1])
		buf := new(batchBuf)
		b.Run("decode/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeBatch(body, DefaultMaxBatch, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode-encoding-json/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req BatchRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		reply, err := appendBatchResponse(nil, &resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(reply)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if buf.out, err = appendBatchResponse(buf.out[:0], &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode-encoding-json/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(reply)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
