// Package dist splits the sharded fit across processes: a coordinator runs
// the multi-pass selection loop (internal/shard with Config.Exec set to a
// Coordinator) and its workers run the same shard.WorkerState.ComputePartial
// kernels the in-process executor runs, over a versioned, length-prefixed,
// CRC-guarded binary protocol. Partition partials fold at the coordinator
// through the same folds, in partition-index order — the exact accumulation
// sequence of a local fit, from which a distributed one differs in transport
// only — so the selected features are bit-identical to shard.Fit and core.Fit
// for every worker count, transport, and recovered transient fault.
package dist

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Version is the protocol version exchanged in the hello handshake. Bump on
// any frame-layout or message change; coordinator and worker must match
// exactly (the fleet upgrades atomically — no cross-version support).
// Version 2 carries the grid passes: a row sample in the base partial, grid
// specs in runPass, grid counts and cut-bucket gathers in partials. Version 3
// moves a generated candidate's moments from the count partial to the Gram
// partial, beside the Gram. Version 4 cuts the source columns on the grid
// passes too: the base partial carries no quantile sketch, a grid spec names
// its column (a live index or a recipe), and the sketch size, the refinement
// specs, and the refiner and criterion-histogram blobs are gone. Version 5
// tallies regression on the gather pass: runPass carries the target code, a
// gather blob every task's member codes and span tallies, and the partial's
// bin-id list (retired kind 9) is gone.
const Version = 5

// magic opens every hello frame, so a worker rejects a stray client that
// happens to speak length-prefixed frames before interpreting anything.
const magic = "SAFEdst1"

// Message types. Part of the wire format — never renumber or reuse.
const (
	msgHello    = 1  // coordinator → worker: magic + version
	msgHelloAck = 2  // worker → coordinator: version
	msgFitOpen  = 3  // coordinator → worker: schema, task, source, retry
	msgAck      = 4  // worker → coordinator: fitOpen/setLive outcome
	msgSetLive  = 5  // coordinator → worker: live-set epoch
	msgRunPass  = 6  // coordinator → worker: pass spec + partition assignment
	msgPartial  = 7  // worker → coordinator: one chunk's partial
	msgPassDone = 8  // worker → coordinator: assignment complete
	msgPassErr  = 9  // worker → coordinator: pass compute/read failure
	msgShutdown = 10 // coordinator → worker: end the session
)

// Source kinds a worker can open on its side of the wire.
const (
	// SourceCSV is a CSV file with a named label column, streamed in
	// ChunkRows-row partitions.
	SourceCSV = 1
	// SourceColstore is a colstore binary columnar file; its row groups are
	// the partitions (ChunkRows does not apply).
	SourceColstore = 2
)

// SourceSpec tells workers which dataset to stream. Every worker must see
// the same file content and produce the same partition geometry, or the
// coordinator aborts on fold-shape mismatches.
type SourceSpec struct {
	Kind      int // SourceCSV or SourceColstore
	Path      string
	Label     string // CSV label column; unused for colstore
	ChunkRows int    // CSV partition rows (<= 0: reader default); unused for colstore
}

// ProtocolError is a permanent wire-format violation: bad magic, version
// mismatch, unknown message type, or a payload that does not parse. It is
// never transient — a peer speaking the wrong protocol aborts the session.
type ProtocolError struct {
	Reason string
}

// Error implements error.
func (e *ProtocolError) Error() string { return "dist: protocol: " + e.Reason }

func protoErr(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// The messages are laid out with internal/wire's appends and parsed with its
// Reader: every decoder below reads its payload linearly — a count the
// remaining bytes cannot back fails the reader before anything is allocated
// for it, so a corrupted count costs at most a small multiple of the frame it
// arrived in — and asks done once.

// done returns a protocol error unless the payload parsed fully and exactly.
func done(r *wire.Reader, what string) error {
	if r.Failed() {
		return protoErr("truncated or malformed %s", what)
	}
	if n := len(r.Rest()); n != 0 {
		return protoErr("%s has %d trailing bytes", what, n)
	}
	return nil
}

// --- handshake ---

func encodeHello() []byte {
	b := wire.AppendU8(nil, msgHello)
	b = append(b, magic...)
	return wire.AppendU32(b, Version)
}

func decodeHello(p []byte) error {
	r := wire.NewReader(p[1:])
	if got := r.Take(len(magic)); string(got) != magic { // a short hello: no bytes at all
		return protoErr("bad magic %q", got)
	}
	return readVersion(&r, "hello")
}

func encodeHelloAck() []byte {
	return wire.AppendU32(wire.AppendU8(nil, msgHelloAck), Version)
}

func decodeHelloAck(p []byte) error {
	r := wire.NewReader(p[1:])
	return readVersion(&r, "helloAck")
}

// readVersion reads what both handshake messages end with: the peer's
// protocol version, which must be this one, and nothing after it.
func readVersion(r *wire.Reader, what string) error {
	v := r.U32()
	if err := done(r, what); err != nil {
		return err
	}
	if v != Version {
		return protoErr("version mismatch: peer %d, local %d", v, Version)
	}
	return nil
}

// --- fitOpen ---

type fitOpen struct {
	Source SourceSpec
	Names  []string
	Task   core.Task
	Retry  shard.RetryPolicy
}

func encodeFitOpen(o *fitOpen) []byte {
	b := wire.AppendU8(nil, msgFitOpen)
	b = wire.AppendU8(b, uint8(o.Source.Kind))
	b = wire.AppendString(b, o.Source.Path)
	b = wire.AppendString(b, o.Source.Label)
	b = wire.AppendI64(b, int64(o.Source.ChunkRows))
	b = wire.AppendStrings(b, o.Names)
	b = wire.AppendU8(b, uint8(o.Task.Kind))
	b = wire.AppendI64(b, int64(o.Task.Classes))
	b = wire.AppendI64(b, int64(o.Retry.MaxAttempts))
	b = wire.AppendI64(b, int64(o.Retry.BaseDelay))
	b = wire.AppendI64(b, int64(o.Retry.MaxDelay))
	return b
}

func decodeFitOpen(p []byte) (*fitOpen, error) {
	r := wire.NewReader(p[1:])
	o := &fitOpen{}
	o.Source.Kind = int(r.U8())
	o.Source.Path = r.Str()
	o.Source.Label = r.Str()
	o.Source.ChunkRows = int(r.I64())
	o.Names = r.Strs()
	o.Task.Kind = core.TaskKind(r.U8())
	o.Task.Classes = int(r.I64())
	o.Retry.MaxAttempts = int(r.I64())
	o.Retry.BaseDelay = time.Duration(r.I64())
	o.Retry.MaxDelay = time.Duration(r.I64())
	return o, done(&r, "fitOpen")
}

// --- ack ---

type ack struct {
	Re    uint8 // message type being acknowledged
	Epoch int   // setLive acks: the installed epoch
	OK    bool
	Msg   string // failure detail when !OK
}

func encodeAck(a *ack) []byte {
	b := wire.AppendU8(nil, msgAck)
	b = wire.AppendU8(b, a.Re)
	b = wire.AppendI64(b, int64(a.Epoch))
	b = wire.AppendBools(b, []bool{a.OK})
	return wire.AppendString(b, a.Msg)
}

func decodeAck(p []byte) (*ack, error) {
	r := wire.NewReader(p[1:])
	a := &ack{Re: r.U8(), Epoch: int(r.I64()), OK: r.Flag(), Msg: r.Str()}
	return a, done(&r, "ack")
}

// --- setLive ---

type setLive struct {
	Epoch int
	Nodes []shard.NodeSpec
	Live  []string
}

func encodeSetLive(m *setLive) []byte {
	b := wire.AppendU8(nil, msgSetLive)
	b = wire.AppendI64(b, int64(m.Epoch))
	b = wire.AppendU32(b, uint32(len(m.Nodes)))
	for _, nd := range m.Nodes {
		b = wire.AppendString(b, nd.Name)
		b = wire.AppendString(b, nd.Op)
		b = wire.AppendStrings(b, nd.Inputs)
	}
	return wire.AppendStrings(b, m.Live)
}

func decodeSetLive(p []byte) (*setLive, error) {
	r := wire.NewReader(p[1:])
	m := &setLive{Epoch: int(r.I64())}
	m.Nodes = make([]shard.NodeSpec, r.Len(12)) // a node: two strings and a string list, a u32 length each
	for i := range m.Nodes {
		m.Nodes[i].Name = r.Str()
		m.Nodes[i].Op = r.Str()
		m.Nodes[i].Inputs = r.Strs()
	}
	m.Live = r.Strs()
	return m, done(&r, "setLive")
}

// --- runPass ---

// assignment names the partitions a worker computes in a pass: the residue
// class {i : i mod Mod == Residue} when Explicit is nil, else exactly the
// Explicit list (used to reassign a dead worker's partitions mid-pass).
type assignment struct {
	Mod      int
	Residue  int
	Explicit []int
}

func (a *assignment) has(idx int) bool {
	if a.Explicit != nil {
		for _, e := range a.Explicit {
			if e == idx {
				return true
			}
		}
		return false
	}
	return a.Mod > 0 && idx%a.Mod == a.Residue
}

type runPass struct {
	PassID int
	Assign assignment
	Spec   *shard.PassSpec
}

func appendGenSpec(b []byte, g *shard.GenSpec) []byte {
	b = wire.AppendString(b, g.Op)
	return wire.AppendInts(b, g.Feats)
}

func readGenSpec(r *wire.Reader) shard.GenSpec {
	return shard.GenSpec{Op: r.Str(), Feats: r.Ints()}
}

// genSpecSize is the length of appendGenSpec's output.
func genSpecSize(g *shard.GenSpec) int { return 4 + len(g.Op) + 4 + 8*len(g.Feats) }

// runPassSize is the exact length of encodeRunPass's output.
func runPassSize(m *runPass) int {
	s := m.Spec
	n := 1 + 3*8 + 5 + 4 + 8*len(m.Assign.Explicit) + 3*8 + 1 + 4 + 4 + 4 + 4 + 3*8 // … the target code
	for _, cuts := range s.LiveCuts {
		n += 4 + 8*len(cuts)
	}
	for i := range s.Grids {
		g := &s.Grids[i]
		n += 8 + genSpecSize(&g.Gen) + 16 + 4 + 8*len(g.Buckets) + 4 + len(g.IV)
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		n += 8 + genSpecSize(&e.Gen) + 4 + 8*len(e.Cuts) + 5
	}
	return n
}

// encodeRunPass writes the message into one buffer of its exact size: a gather
// pass's spec, every column's cut buckets, runs to hundreds of kilobytes.
func encodeRunPass(m *runPass) []byte {
	b := wire.AppendU8(make([]byte, 0, runPassSize(m)), msgRunPass)
	b = wire.AppendI64(b, int64(m.PassID))
	b = wire.AppendI64(b, int64(m.Assign.Mod))
	b = wire.AppendI64(b, int64(m.Assign.Residue))
	b = wire.AppendBools(b, []bool{m.Assign.Explicit != nil})
	b = wire.AppendInts(b, m.Assign.Explicit)
	s := m.Spec
	b = wire.AppendI64(b, int64(s.Pass))
	b = wire.AppendU8(b, uint8(s.Kind))
	b = wire.AppendI64(b, int64(s.Epoch))
	b = wire.AppendI64(b, 0) // the class count of the retired score passes
	b = wire.AppendU32(b, uint32(len(s.LiveCuts)))
	for _, cuts := range s.LiveCuts {
		b = wire.AppendF64s(b, cuts)
	}
	b = wire.AppendU32(b, 0) // their combination list
	b = wire.AppendU32(b, uint32(len(s.Grids)))
	for i := range s.Grids {
		g := &s.Grids[i]
		b = wire.AppendI64(b, int64(g.Base))
		b = appendGenSpec(b, &g.Gen)
		b = wire.AppendF64(b, g.Grid.Lo)
		b = wire.AppendF64(b, g.Grid.Scale)
		b = wire.AppendInts(b, g.Buckets)
		b = wire.AppendBools(b, g.IV)
	}
	b = wire.AppendF64(b, s.Target.Mean)
	b = wire.AppendI64(b, int64(s.Target.Scale))
	b = wire.AppendI64(b, int64(s.Target.Room))
	b = wire.AppendU32(b, uint32(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		b = wire.AppendI64(b, int64(e.Base))
		b = appendGenSpec(b, &e.Gen)
		b = wire.AppendF64s(b, e.Cuts)
		b = wire.AppendBools(b, []bool{e.NeedCodes})
	}
	return b
}

func decodeRunPass(p []byte) (*runPass, error) {
	r := wire.NewReader(p[1:])
	m := &runPass{PassID: int(r.I64())}
	m.Assign.Mod = int(r.I64())
	m.Assign.Residue = int(r.I64())
	hasExplicit := r.Flag()
	explicit := r.Ints() // never nil: an empty list is still a list
	if hasExplicit {
		m.Assign.Explicit = explicit
	}
	s := &shard.PassSpec{
		Pass:  int(r.I64()),
		Kind:  shard.PassKind(r.U8()),
		Epoch: int(r.I64()),
	}
	// Two words of the v1 layout belonged to the score passes (shard's retired
	// kinds 3–5): a class count, which nothing reads any more, and a
	// combination list, which no pass that still runs can carry.
	r.I64()
	s.LiveCuts = make([][]float64, r.Len(4))
	for i := range s.LiveCuts {
		s.LiveCuts[i] = r.F64s(nil)
	}
	if n := r.U32(); n != 0 {
		return nil, protoErr("runPass carries %d combinations to score: the score passes are retired", n)
	}
	s.Grids = make([]shard.GridSpec, r.Len(40)) // a base, a recipe (two lists), two floats, two lists
	for i := range s.Grids {
		g := &s.Grids[i]
		g.Base = int(r.I64())
		g.Gen = readGenSpec(&r)
		g.Grid.Lo, g.Grid.Scale = r.F64(), r.F64()
		g.Buckets = r.Ints()
		g.IV = r.Bools()
	}
	s.Target.Mean, s.Target.Scale, s.Target.Room = r.F64(), int(r.I64()), int(r.I64())
	s.Entries = make([]shard.EntrySpec, r.Len(24))
	for i := range s.Entries {
		s.Entries[i].Base = int(r.I64())
		s.Entries[i].Gen = readGenSpec(&r)
		s.Entries[i].Cuts = r.F64s(nil)
		s.Entries[i].NeedCodes = r.Flag()
	}
	m.Spec = s
	return m, done(&r, "runPass")
}

// --- partial ---

// partialMsg is one received partial and the memory it lives in: a container
// the coordinator recycles (partialPool) so that a steady stream of partials
// decodes into the same backings instead of fresh ones. Its blobs and code
// columns are views of the message it was decoded from, which is the
// connection's receive buffer: the reader that received it does not receive
// again until the pass loop lets go of it (release), having folded it or
// copied it out (keep) to wait beyond a gap.
type partialMsg struct {
	PassID  int
	Partial shard.Partial
	slab    []byte          // a kept partial's copy of its blobs and code columns
	free    chan<- struct{} // the reader waiting for release; nil when none is
}

// keep copies the blobs and code columns into the slab, so that the partial
// no longer reads the message it was decoded from.
func (m *partialMsg) keep() {
	n := 0
	for _, b := range m.Partial.Blobs {
		n += len(b)
	}
	for _, c := range m.Partial.Codes {
		n += len(c)
	}
	if m.slab = m.slab[:0]; cap(m.slab) < n {
		m.slab = make([]byte, 0, n)
	}
	for i, b := range m.Partial.Blobs {
		m.Partial.Blobs[i] = m.stash(b)
	}
	for i, c := range m.Partial.Codes {
		m.Partial.Codes[i] = m.stash(c)
	}
}

// stash appends v to the slab, which has room for it, and returns the copy
// (capacity-clipped, so appending to it cannot run into its neighbour).
func (m *partialMsg) stash(v []byte) []byte {
	start := len(m.slab)
	m.slab = append(m.slab, v...)
	return m.slab[start:len(m.slab):len(m.slab)]
}

// release lets the reader that received the partial receive again. Called
// once per received partial, after the last read of its message.
func (m *partialMsg) release() {
	if m.free != nil {
		m.free <- struct{}{}
		m.free = nil
	}
}

// partialSize is the exact length of the partial message AppendPartial
// writes for p.
func partialSize(kind shard.PassKind, p *shard.Partial) int {
	n := 1 + 4*8 + (4 + 8*len(p.Labels)) + 4 + 4
	for i, nb := 0, p.BlobCount(kind); i < nb; i++ {
		n += 4 + p.BlobSize(kind, i)
	}
	for _, codes := range p.Codes {
		n += 4 + len(codes)
	}
	return n
}

// AppendPartial appends one computed partial of a pass of the given kind to
// dst as a partial message. The message's exact size is known up front, so
// dst grows at most once, and each blob of the typed payload is rendered
// straight into place behind its length (filled in from what was written):
// no byte of a partial is written twice on its way out. A worker passes the
// previous frame's buffer, so a session's partials are framed in a buffer that
// grows only for a partial larger than all before it. Exported, with
// DecodePartial, so the seam tests in internal/shard can put a partial
// through the same bytes a worker sends.
func AppendPartial(dst []byte, passID int, kind shard.PassKind, p *shard.Partial) []byte {
	b := dst
	if need := len(dst) + partialSize(kind, p); cap(dst) < need {
		// A reused buffer that proved too small grows with an eighth to spare:
		// the next partition's partial of a pass is rarely the same size.
		room := need
		if dst != nil {
			room += need / 8
		}
		b = append(make([]byte, 0, room), dst...)
	}
	b = wire.AppendU8(b, msgPartial)
	b = wire.AppendI64(b, int64(passID))
	b = wire.AppendI64(b, int64(p.Chunk))
	b = wire.AppendI64(b, int64(p.Start))
	b = wire.AppendI64(b, int64(p.Rows))
	b = wire.AppendF64s(b, p.Labels)
	nb := p.BlobCount(kind)
	b = wire.AppendU32(b, uint32(nb))
	for i := 0; i < nb; i++ {
		at := len(b)
		b = p.AppendBlob(wire.AppendU32(b, 0), kind, i)
		wire.PutU32(b[at:], uint32(len(b)-at-4))
	}
	b = wire.AppendU32(b, uint32(len(p.Codes)))
	for _, codes := range p.Codes {
		b = wire.AppendBytes(b, codes)
	}
	return b
}

// DecodePartial is AppendPartial's inverse, into fresh memory.
func DecodePartial(msg []byte) (passID int, p *shard.Partial, err error) {
	if msgType(msg) != msgPartial {
		return 0, nil, protoErr("message type %d is not a partial", msgType(msg))
	}
	m := &partialMsg{}
	if err := decodePartial(msg, m); err != nil {
		return 0, nil, err
	}
	m.keep()
	return m.PassID, &m.Partial, nil
}

// decodePartial fills m from a partial message, reusing the backings m kept
// from the partial it held before. The labels are copied out of p; the blobs
// and code columns are views of it, valid as long as p is (keep copies them).
func decodePartial(p []byte, m *partialMsg) error {
	r := wire.NewReader(p[1:])
	m.PassID = int(r.I64())
	// Only the plain backings, the count pass's counts, the gather pass's
	// gather headers and the Gram pass's moments (emptied, for Partial.Decode
	// to refill) carry over; the rest of the typed payload a fold decoded into
	// the previous tenant is dropped.
	old := m.Partial
	m.Partial = shard.Partial{Chunk: int(r.I64()), Start: int(r.I64()), Rows: int(r.I64()),
		Counts: old.Counts[:0], Gathers: old.Gathers[:0], Moments: old.Moments[:0]}
	m.Partial.Labels = r.F64s(old.Labels)
	m.Partial.Blobs = wire.Resize(old.Blobs, r.Len(4))
	for i := range m.Partial.Blobs {
		m.Partial.Blobs[i] = r.Bytes()
	}
	m.Partial.Codes = wire.Resize(old.Codes, r.Len(4))
	for i := range m.Partial.Codes {
		m.Partial.Codes[i] = r.Bytes()
	}
	return done(&r, "partial")
}

// --- passDone / passErr ---

type passDone struct {
	PassID  int
	Chunks  int
	Rows    int64
	Retries int64
}

func encodePassDone(m *passDone) []byte {
	b := wire.AppendU8(nil, msgPassDone)
	b = wire.AppendI64(b, int64(m.PassID))
	b = wire.AppendI64(b, int64(m.Chunks))
	b = wire.AppendI64(b, m.Rows)
	b = wire.AppendI64(b, m.Retries)
	return b
}

func decodePassDone(p []byte) (*passDone, error) {
	r := wire.NewReader(p[1:])
	m := &passDone{
		PassID:  int(r.I64()),
		Chunks:  int(r.I64()),
		Rows:    r.I64(),
		Retries: r.I64(),
	}
	return m, done(&r, "passDone")
}

type passErr struct {
	PassID    int
	Chunk     int // 0-based chunk ordinal, -1 unknown
	Attempts  int
	Transient bool
	Msg       string
}

func encodePassErr(m *passErr) []byte {
	b := wire.AppendU8(nil, msgPassErr)
	b = wire.AppendI64(b, int64(m.PassID))
	b = wire.AppendI64(b, int64(m.Chunk))
	b = wire.AppendI64(b, int64(m.Attempts))
	b = wire.AppendBools(b, []bool{m.Transient})
	return wire.AppendString(b, m.Msg)
}

func decodePassErr(p []byte) (*passErr, error) {
	r := wire.NewReader(p[1:])
	m := &passErr{PassID: int(r.I64()), Chunk: int(r.I64()), Attempts: int(r.I64())}
	m.Transient = r.Flag()
	m.Msg = r.Str()
	return m, done(&r, "passErr")
}
