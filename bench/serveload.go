package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	safe "repro"
	"repro/internal/core"
	"repro/internal/gbdt"
	"repro/internal/serve"
)

// The serve-mixed workload: a pipeline and a 50-tree model behind the real
// HTTP handler, driven in rounds of a closed loop (throughput) and then an
// open loop (latency) over the same two connections. The machine's speed is
// read between the phases, while the server is idle (calib.go), and each
// round's throughput and median latency are corrected by it.
const (
	serveBatch     = 64   // rows per request
	serveHotRows   = 1024 // rows the hot set draws from: fits the cache
	serveCacheRows = 4096 // cold rows evict one another, never the hot set's recency
	serveTrees     = 50
	serveClients   = 2    // closed-loop clients, and the open loop's connection cap
	serveLateMS    = 1.0  // a send starting later than this after due is late
	predictShare   = 0.7  // the rest are /transform
	verifyShare    = 0.01 // responses checked value by value
	closedShare    = 0.5  // of a round; the open loop takes the rest
	roundSeconds   = 2.0  // one closed phase and one open phase
)

// loadShape is the part of the load a smoke run softens: it checks that
// every request is answered correctly, not how fast, so it must pass on a
// machine that is busy running the rest of the test suite.
type loadShape struct {
	rounds       int
	closed, open time.Duration // per round
	rate         float64       // open-loop requests per second
	limitMS      float64       // a slower request counts as failed
}

func shapeFor(o runOptions) loadShape {
	if o.Quick {
		return loadShape{rounds: 1, closed: time.Second, open: time.Second, rate: 50, limitMS: 5000}
	}
	rounds := int(o.Seconds/roundSeconds + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	secs := func(share float64) time.Duration {
		return time.Duration(share * o.Seconds / float64(rounds) * float64(time.Second))
	}
	return loadShape{rounds: rounds, closed: secs(closedShare), open: secs(1 - closedShare), rate: 400, limitMS: 1000}
}

// batchClass is how a request's rows relate to the feature cache. A quarter
// of requests are all-hot, a quarter all-cold, half mixed half and half, so
// half of all rows hit; the pure classes give hot and cold latencies.
type batchClass uint8

const (
	classHot batchClass = iota
	classCold
	classMixed
)

type serveSetup struct {
	http     *httptest.Server
	handler  *serve.Server
	pipeline *core.Pipeline
	model    *gbdt.Model
	hot      [][]float64
	hotJSON  [][]byte // hot rows pre-encoded: the client should cost little
	test     [][]float64
}

func (s *serveSetup) close() { s.http.Close() }

// setupServe fits the pipeline, trains the model on its output and starts
// the server.
func setupServe(ctx context.Context, w workload, seed int64) (*serveSetup, error) {
	ds, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	fit, err := safe.Fit(ctx, safe.FromFrame(ds.Train), w.fitOptions()...)
	if err != nil {
		return nil, err
	}
	tr, err := fit.Pipeline.Transform(ds.Train)
	if err != nil {
		return nil, err
	}
	mcfg := gbdt.DefaultConfig()
	mcfg.NumTrees = serveTrees
	model, err := gbdt.Train(frameCols(tr), tr.Label, tr.Names(), mcfg)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if err := reg.Register("bench", "v1", fit.Pipeline, model); err != nil {
		return nil, err
	}
	handler := serve.NewServer(reg, serve.Options{CacheSize: serveCacheRows})
	s := &serveSetup{
		http:     httptest.NewServer(handler),
		handler:  handler,
		pipeline: fit.Pipeline,
		model:    model,
	}
	hot := serveHotRows
	if hot > ds.Train.NumRows() {
		hot = ds.Train.NumRows()
	}
	for i := 0; i < hot; i++ {
		row := ds.Train.Row(i, nil)
		s.hot = append(s.hot, row)
		s.hotJSON = append(s.hotJSON, appendRow(nil, row))
	}
	for i := 0; i < ds.Test.NumRows(); i++ {
		s.test = append(s.test, ds.Test.Row(i, nil))
	}
	return s, nil
}

func appendRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// request is one generated request.
type request struct {
	predict bool
	class   batchClass
	body    []byte
	rows    [][]float64 // kept only for the responses that get verified
}

// requestGen draws requests from its own seeded stream; one per client
// goroutine, so the mix does not depend on scheduling.
type requestGen struct {
	s   *serveSetup
	rng *rand.Rand
	dim int
	buf []byte
}

func newRequestGen(s *serveSetup, seed int64) *requestGen {
	return &requestGen{s: s, rng: rand.New(rand.NewSource(seed)), dim: len(s.hot[0])}
}

func (g *requestGen) next() request {
	r := request{predict: g.rng.Float64() < predictShare}
	switch u := g.rng.Float64(); {
	case u < 0.25:
		r.class = classHot
	case u < 0.5:
		r.class = classCold
	default:
		r.class = classMixed
	}
	verify := g.rng.Float64() < verifyShare
	b := append(g.buf[:0], `{"rows":[`...)
	for i := 0; i < serveBatch; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		hot := r.class == classHot || (r.class == classMixed && i%2 == 0)
		if hot {
			k := g.rng.Intn(len(g.s.hot))
			b = append(b, g.s.hotJSON[k]...)
			if verify {
				r.rows = append(r.rows, g.s.hot[k])
			}
			continue
		}
		// A fresh draw from a continuous distribution: a row the server has
		// never seen, so a miss, a Put and (once the cache is full) an
		// eviction.
		row := make([]float64, g.dim)
		for j := range row {
			row[j] = g.rng.NormFloat64()
		}
		b = appendRow(b, row)
		if verify {
			r.rows = append(r.rows, row)
		}
	}
	b = append(b, "]}"...)
	g.buf = b
	r.body = b
	return r
}

// sample is one answered (or failed) request.
type sample struct {
	ms        float64
	class     batchClass
	predict   bool
	ok        bool
	reqBytes  int
	respBytes int
}

// batchReply is the part of a response the client always decodes: one raw
// element per row, so counting rows does not cost parsing every float.
type batchReply struct {
	Scores   []json.RawMessage `json:"scores"`
	Features []json.RawMessage `json:"features"`
}

// client sends requests and checks replies.
type client struct {
	s    *serveSetup
	http *http.Client
	url  string
}

func newClient(s *serveSetup) *client {
	return &client{
		s:    s,
		url:  s.http.URL,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}},
	}
}

// do sends r and reports whether the reply was right: status 200, one
// answer per row, and — for the verified share — every value equal to the
// offline model.PredictRow(pipeline.TransformBatch(rows)).
func (c *client) do(r request) (ok bool, respBytes int) {
	path := "/transform"
	if r.predict {
		path = "/predict"
	}
	resp, err := c.http.Post(c.url+path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return false, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, len(body)
	}
	var reply batchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return false, len(body)
	}
	answers := reply.Features
	if r.predict {
		answers = reply.Scores
	}
	if len(answers) != serveBatch {
		return false, len(body)
	}
	if r.rows != nil && !c.verify(r, answers) {
		return false, len(body)
	}
	return true, len(body)
}

func (c *client) verify(r request, answers []json.RawMessage) bool {
	want, err := c.s.pipeline.TransformBatch(r.rows)
	if err != nil {
		return false
	}
	for i, raw := range answers {
		if r.predict {
			var got float64
			if json.Unmarshal(raw, &got) != nil || got != c.s.model.PredictRow(want[i]) {
				return false
			}
			continue
		}
		var got []float64
		if json.Unmarshal(raw, &got) != nil || len(got) != len(want[i]) {
			return false
		}
		for j := range got {
			if got[j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

// clientGens is one request stream per client goroutine, kept across rounds.
func clientGens(s *serveSetup, seed int64) []*requestGen {
	gens := make([]*requestGen, serveClients)
	for k := range gens {
		gens[k] = newRequestGen(s, seed+int64(k))
	}
	return gens
}

// closedLoop runs serveClients clients back to back for d and returns their
// samples and the phase's wall seconds.
func closedLoop(c *client, gens []*requestGen, d time.Duration) ([]sample, float64) {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, gen := range gens {
		wg.Add(1)
		go func(gen *requestGen) {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				r := gen.next()
				t0 := time.Now()
				ok, n := c.do(r)
				mine = append(mine, sample{
					ms: msSince(t0), class: r.class, predict: r.predict, ok: ok,
					reqBytes: len(r.body), respBytes: n,
				})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(gen)
	}
	wg.Wait()
	return all, time.Since(start).Seconds()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// openStats is how well the open-loop generator kept its schedule. If late
// or backlog are not ~0 the latencies measure the generator's queue, which
// is the point of timing from the due time — but then say so.
type openStats struct {
	late       int
	backlogMax int
	spans      []span
}

// openLoop sends one round's requests on a fixed schedule of rate per second
// over serveClients connections. Each sender claims the next slot, sleeps
// until it is due, and times the request from the due time, so a stall
// delays — and is charged to — every request scheduled behind it. With trace
// set it records two spans per request, timed from origin and numbered from
// 2*firstReq+1.
func openLoop(c *client, gens []*requestGen, shape loadShape, trace bool, origin time.Time, firstReq int) ([]sample, openStats) {
	interval := time.Duration(float64(time.Second) / shape.rate)
	total := int(shape.rate * shape.open.Seconds())
	samples := make([]sample, total)
	var st openStats
	if trace {
		st.spans = make([]span, 2*total)
	}
	var next atomic.Int64
	var late, backlogMax atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	for _, gen := range gens {
		wg.Add(1)
		go func(gen *requestGen) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				r := gen.next()
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.Sub(due) > time.Duration(serveLateMS*float64(time.Millisecond)) {
					late.Add(1)
				}
				if behind := int64(sent.Sub(t0)/interval) - int64(i); behind > backlogMax.Load() {
					backlogMax.Store(behind) // two writers; a lost update undercounts by one slot
				}
				ok, n := c.do(r)
				end := time.Now()
				ms := float64(end.Sub(due)) / float64(time.Millisecond)
				samples[i] = sample{
					ms: ms, class: r.class, predict: r.predict, ok: ok,
					reqBytes: len(r.body), respBytes: n,
				}
				if trace {
					// The request span runs from due; its child from the
					// actual send, so the request's self time is its wait.
					id := 2*(firstReq+i) + 1
					st.spans[2*i] = span{ID: id, Name: "serve.request", Start: due.Sub(origin).Seconds(), End: end.Sub(origin).Seconds()}
					st.spans[2*i+1] = span{ID: id + 1, Parent: id, Name: "serve.send", Start: sent.Sub(origin).Seconds(), End: end.Sub(origin).Seconds()}
				}
			}
		}(gen)
	}
	wg.Wait()
	st.late, st.backlogMax = int(late.Load()), int(backlogMax.Load())
	return samples, st
}

// okRows counts the rows of the correctly answered requests.
func okRows(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.ok {
			n += serveBatch
		}
	}
	return n
}

func latencies(ss []sample) []float64 {
	ms := make([]float64, len(ss))
	for i, s := range ss {
		ms[i] = s.ms
	}
	return ms
}

func serverStats(c *client) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := c.http.Get(c.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runServe measures serve-mixed. The traced run drives the same load and
// adds the per-class breakdown, the socket-free handler timing, the server's
// own view and the transform/predict kernels.
func runServe(ctx context.Context, o runOptions, dir string) (*outcome, error) {
	out := &outcome{Values: map[string]float64{}}
	m := out.Values
	g := newSpeedGauge(o.Procs)
	setup, setupS, err := repeatSetup(o, g, dir, func(string) (*serveSetup, error) {
		return setupServe(ctx, o.W, o.Seed)
	}, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer setup.close()
	c := newClient(setup)
	defer c.http.CloseIdleConnections()

	shape := shapeFor(o)
	before, err := serverStats(c)
	if err != nil {
		return nil, err
	}

	// Rounds of closed loop then open loop, the machine's speed read between
	// them. A round's throughput is divided by the speed and its median
	// latency multiplied; the run reports the median round.
	var (
		closed, open   []sample
		ost            openStats
		closedS, cpuS  float64
		allocB, allocN uint64
		gcCycles       uint32
		tputs, p50s    []float64
	)
	closedGens := clientGens(setup, o.Seed*1000)
	openGens := clientGens(setup, o.Seed*1000+100)
	origin := time.Now()
	runtime.GC()
	for r := 0; r < shape.rounds; r++ {
		var cs []sample
		var secs float64
		var ms0, ms1 runtime.MemStats
		speed := g.around(func() {
			runtime.ReadMemStats(&ms0)
			cpu0 := selfCPU()
			cs, secs = closedLoop(c, closedGens, shape.closed)
			cpuS += selfCPU() - cpu0
			runtime.ReadMemStats(&ms1)
		})
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		closed = append(closed, cs...)
		closedS += secs
		allocB += ms1.TotalAlloc - ms0.TotalAlloc
		allocN += ms1.Mallocs - ms0.Mallocs
		gcCycles += ms1.NumGC - ms0.NumGC
		tputs = append(tputs, float64(okRows(cs))/secs/speed)

		var round []sample
		var st openStats
		speed = g.around(func() { round, st = openLoop(c, openGens, shape, o.Trace, origin, len(open)) })
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		open = append(open, round...)
		ost.late += st.late
		if st.backlogMax > ost.backlogMax {
			ost.backlogMax = st.backlogMax
		}
		ost.spans = append(ost.spans, st.spans...)
		p50s = append(p50s, median(latencies(round))*speed)
	}
	after, err := serverStats(c)
	if err != nil {
		return nil, err
	}

	answered := okRows(closed)
	wrong, slow := 0, 0
	for _, s := range closed {
		if !s.ok {
			wrong++
		}
	}
	for _, s := range open {
		switch {
		case !s.ok:
			wrong++
		case s.ms > shape.limitMS:
			slow++
		}
	}
	lat := latencies(open)
	out.Attempted = len(closed) + len(open)
	out.Failed = wrong + slow
	if out.Failed > 0 {
		out.notef("failed: %d wrong or unanswered, %d answered after more than %.0f ms", wrong, slow, shape.limitMS)
	}
	if answered == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("no request was answered")
	}
	med, lo, hi := g.note()
	out.notef("%d rounds; closed loop: %d requests in %.2fs; open loop: %d requests at %.0f/s, late=%d backlog_max=%d",
		shape.rounds, len(closed), closedS, len(open), shape.rate, ost.late, ost.backlogMax)
	out.notef("host speed (1 = nominal): median %.3f, range %.3f to %.3f; uncorrected rows_per_s %.0f, latency_p50_ms %.3f",
		med, lo, hi, float64(answered)/closedS, median(lat))

	out.notef("corrected rounds: rows_per_s quartiles %.0f %.0f %.0f, latency_p50_ms quartiles %.3f %.3f %.3f",
		quantile(tputs, 0.25), median(tputs), quantile(tputs, 0.75), quantile(p50s, 0.25), median(p50s), quantile(p50s, 0.75))

	if !o.Trace {
		m["setup_s"] = setupS
		m["rows_per_s"] = median(tputs)
		m["latency_p50_ms"] = median(p50s)
		m["alloc_kb_per_row"] = float64(allocB) / 1024 / float64(answered)
		return out, nil
	}

	m["host.speed"] = med
	m["serve.p50_ms"] = median(lat)
	m["serve.p99_ms"] = quantile(lat, 0.99)
	m["serve.late_frac"] = float64(ost.late) / float64(len(open))
	m["serve.backlog_max"] = float64(ost.backlogMax)
	by := func(keep func(sample) bool) float64 {
		var xs []float64
		for _, s := range open {
			if keep(s) {
				xs = append(xs, s.ms)
			}
		}
		return median(xs)
	}
	m["serve.hot_p50_ms"] = by(func(s sample) bool { return s.class == classHot })
	m["serve.cold_p50_ms"] = by(func(s sample) bool { return s.class == classCold })
	m["serve.predict_p50_ms"] = by(func(s sample) bool { return s.predict })
	m["serve.transform_p50_ms"] = by(func(s sample) bool { return !s.predict })
	var reqB, respB float64
	for _, s := range open {
		reqB += float64(s.reqBytes)
		respB += float64(s.respBytes)
	}
	m["serve.req_bytes"] = reqB / float64(len(open))
	m["serve.resp_bytes"] = respB / float64(len(open))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	m["serve.cache_hit_ratio"] = hits / (hits + misses)
	m["serve.server_p50_us"] = after.Latency.P50us
	m["serve.server_p99_us"] = after.Latency.P99us
	m["proc.cpu_s"] = cpuS
	m["proc.cpu_util"] = cpuS / closedS / float64(o.Procs)
	m["proc.allocs"] = float64(allocN)
	m["proc.gc_cycles"] = float64(gcCycles)
	serveProbes(setup, o.Seed, m)
	return out, writeSpans(filepath.Join(o.Scratch, "trace-"+o.W.Name+".jsonl"), ost.spans)
}

// serveProbes times the layers under the HTTP transport: the handler without
// a socket, the pipeline's batch transform and the model's predict.
func serveProbes(s *serveSetup, seed int64, m map[string]float64) {
	gen := newRequestGen(s, seed*1000+200)
	var us []float64
	for i := 0; i < 300; i++ {
		r := gen.next()
		path := "/transform"
		if r.predict {
			path = "/predict"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		s.handler.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	m["serve.handler_p50_us"] = median(us)

	for _, b := range []int{64, 4096} {
		rows := make([][]float64, b)
		for i := range rows {
			rows[i] = s.test[i%len(s.test)]
		}
		secs := timeMedian(probeReps, func() { _, _ = s.pipeline.TransformBatch(rows) })
		m[fmt.Sprintf("core.transform_rows_per_s.b%d", b)] = float64(b) / secs
	}

	const predictRows = 10000
	rows := make([][]float64, predictRows)
	for i := range rows {
		rows[i] = s.test[i%len(s.test)]
	}
	feats, err := s.pipeline.TransformBatch(rows)
	if err != nil {
		return
	}
	cols := make([][]float64, len(feats[0]))
	for j := range cols {
		cols[j] = make([]float64, predictRows)
		for i := range feats {
			cols[j][i] = feats[i][j]
		}
	}
	secs := timeMedian(probeReps, func() { probeSink = s.model.Predict(cols)[0] })
	m["gbdt.predict_rows_per_s"] = predictRows / secs
}
