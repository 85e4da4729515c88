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
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Version is the protocol version exchanged in the hello handshake. Bump on
// any frame-layout or message change; coordinator and worker must match
// exactly (the fleet upgrades atomically — no cross-version support).
const Version = 1

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

// --- primitive append/read helpers (little-endian) ---

func appendU8(b []byte, v uint8) []byte   { return append(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int32) []byte  { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendU32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, v)
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI32(b, v)
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, int64(v))
	}
	return b
}

func appendBytes(b []byte, v []byte) []byte {
	b = appendU32(b, uint32(len(v)))
	return append(b, v...)
}

func appendBools(b []byte, vs []bool) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// reader consumes a payload with sticky error state: every read reports
// success through ok(); the first failure poisons the rest, so decode code
// reads linearly and checks once.
type reader struct {
	b    []byte
	fail bool
}

func (r *reader) bad() { r.fail = true }

func (r *reader) u8() uint8 {
	if r.fail || len(r.b) < 1 {
		r.bad()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.fail || len(r.b) < 4 {
		r.bad()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.fail || len(r.b) < 8 {
		r.bad()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i32() int32    { return int32(r.u32()) }
func (r *reader) i64() int64    { return int64(r.u64()) }
func (r *reader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }

// length reads an element count. Every element of the sequence it announces
// occupies at least elem bytes of payload, so a count the remaining bytes
// cannot back is rejected before anything is allocated for it: a corrupted
// count costs at most a small multiple of the frame it arrived in.
func (r *reader) length(elem int) int {
	n := r.u32()
	if r.fail || uint64(n)*uint64(elem) > uint64(len(r.b)) {
		r.bad()
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.length(1)
	if r.fail {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) strs() []string {
	n := r.length(4) // each string: a u32 length
	if r.fail {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// resize returns s with length n, reusing its backing when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (r *reader) f64s() []float64 { return r.f64sInto(nil) }

// f64sInto is f64s into dst's backing when it is large enough.
func (r *reader) f64sInto(dst []float64) []float64 {
	out := resize(dst, r.length(8))
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *reader) i64s() []int64 {
	out := make([]int64, r.length(8))
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// i32sInto reads an int32 slice into dst's backing when it is large enough.
func (r *reader) i32sInto(dst []int32) []int32 {
	out := resize(dst, r.length(4))
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

func (r *reader) ints() []int {
	out := make([]int, r.length(8))
	for i := range out {
		out[i] = int(r.i64())
	}
	return out
}

// bytesInto copies a byte string to the end of slab, which must have room
// for it, and returns the copy (capacity-clipped, so appending to it cannot
// run into its neighbour).
func (r *reader) bytesInto(slab *[]byte) []byte {
	n := r.length(1)
	start := len(*slab)
	*slab = append(*slab, r.b[:n]...)
	r.b = r.b[n:]
	return (*slab)[start:len(*slab):len(*slab)]
}

func (r *reader) bools() []bool {
	out := make([]bool, r.length(1))
	for i := range out {
		out[i] = r.boolean()
	}
	return out
}

// done returns a protocol error unless the payload parsed fully and
// exactly.
func (r *reader) done(what string) error {
	if r.fail {
		return protoErr("truncated %s", what)
	}
	if len(r.b) != 0 {
		return protoErr("%s has %d trailing bytes", what, len(r.b))
	}
	return nil
}

// --- handshake ---

func encodeHello() []byte {
	b := appendU8(nil, msgHello)
	b = append(b, magic...)
	return appendU32(b, Version)
}

func decodeHello(p []byte) error {
	r := &reader{b: p[1:]}
	if r.fail || len(r.b) < len(magic) {
		return protoErr("short hello")
	}
	got := string(r.b[:len(magic)])
	r.b = r.b[len(magic):]
	if got != magic {
		return protoErr("bad magic %q", got)
	}
	v := r.u32()
	if err := r.done("hello"); err != nil {
		return err
	}
	if v != Version {
		return protoErr("version mismatch: peer %d, local %d", v, Version)
	}
	return nil
}

func encodeHelloAck() []byte {
	return appendU32(appendU8(nil, msgHelloAck), Version)
}

func decodeHelloAck(p []byte) error {
	r := &reader{b: p[1:]}
	v := r.u32()
	if err := r.done("helloAck"); err != nil {
		return err
	}
	if v != Version {
		return protoErr("version mismatch: peer %d, local %d", v, Version)
	}
	return nil
}

// --- fitOpen ---

type fitOpen struct {
	Source     SourceSpec
	Names      []string
	Task       core.Task
	SketchSize int
	Retry      shard.RetryPolicy
}

func encodeFitOpen(o *fitOpen) []byte {
	b := appendU8(nil, msgFitOpen)
	b = appendU8(b, uint8(o.Source.Kind))
	b = appendString(b, o.Source.Path)
	b = appendString(b, o.Source.Label)
	b = appendI64(b, int64(o.Source.ChunkRows))
	b = appendStrings(b, o.Names)
	b = appendU8(b, uint8(o.Task.Kind))
	b = appendI64(b, int64(o.Task.Classes))
	b = appendI64(b, int64(o.SketchSize))
	b = appendI64(b, int64(o.Retry.MaxAttempts))
	b = appendI64(b, int64(o.Retry.BaseDelay))
	b = appendI64(b, int64(o.Retry.MaxDelay))
	return b
}

func decodeFitOpen(p []byte) (*fitOpen, error) {
	r := &reader{b: p[1:]}
	o := &fitOpen{}
	o.Source.Kind = int(r.u8())
	o.Source.Path = r.str()
	o.Source.Label = r.str()
	o.Source.ChunkRows = int(r.i64())
	o.Names = r.strs()
	o.Task.Kind = core.TaskKind(r.u8())
	o.Task.Classes = int(r.i64())
	o.SketchSize = int(r.i64())
	o.Retry.MaxAttempts = int(r.i64())
	o.Retry.BaseDelay = time.Duration(r.i64())
	o.Retry.MaxDelay = time.Duration(r.i64())
	return o, r.done("fitOpen")
}

// --- ack ---

type ack struct {
	Re    uint8 // message type being acknowledged
	Epoch int   // setLive acks: the installed epoch
	OK    bool
	Msg   string // failure detail when !OK
}

func encodeAck(a *ack) []byte {
	b := appendU8(nil, msgAck)
	b = appendU8(b, a.Re)
	b = appendI64(b, int64(a.Epoch))
	b = appendBools(b, []bool{a.OK})
	return appendString(b, a.Msg)
}

func decodeAck(p []byte) (*ack, error) {
	r := &reader{b: p[1:]}
	a := &ack{Re: r.u8(), Epoch: int(r.i64())}
	oks := r.bools()
	a.Msg = r.str()
	if err := r.done("ack"); err != nil {
		return nil, err
	}
	if len(oks) != 1 {
		return nil, protoErr("ack has %d ok flags", len(oks))
	}
	a.OK = oks[0]
	return a, nil
}

// --- setLive ---

type setLive struct {
	Epoch int
	Nodes []shard.NodeSpec
	Live  []string
}

func encodeSetLive(m *setLive) []byte {
	b := appendU8(nil, msgSetLive)
	b = appendI64(b, int64(m.Epoch))
	b = appendU32(b, uint32(len(m.Nodes)))
	for _, nd := range m.Nodes {
		b = appendString(b, nd.Name)
		b = appendString(b, nd.Op)
		b = appendStrings(b, nd.Inputs)
	}
	return appendStrings(b, m.Live)
}

func decodeSetLive(p []byte) (*setLive, error) {
	r := &reader{b: p[1:]}
	m := &setLive{Epoch: int(r.i64())}
	n := r.length(12) // a node: two strings and a string list, a u32 length each
	if !r.fail {
		m.Nodes = make([]shard.NodeSpec, n)
		for i := range m.Nodes {
			m.Nodes[i].Name = r.str()
			m.Nodes[i].Op = r.str()
			m.Nodes[i].Inputs = r.strs()
		}
	}
	m.Live = r.strs()
	return m, r.done("setLive")
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
	b = appendString(b, g.Op)
	return appendInts(b, g.Feats)
}

func readGenSpec(r *reader) shard.GenSpec {
	return shard.GenSpec{Op: r.str(), Feats: r.ints()}
}

func encodeRunPass(m *runPass) []byte {
	b := appendU8(nil, msgRunPass)
	b = appendI64(b, int64(m.PassID))
	b = appendI64(b, int64(m.Assign.Mod))
	b = appendI64(b, int64(m.Assign.Residue))
	b = appendBools(b, []bool{m.Assign.Explicit != nil})
	b = appendInts(b, m.Assign.Explicit)
	s := m.Spec
	b = appendI64(b, int64(s.Pass))
	b = appendU8(b, uint8(s.Kind))
	b = appendI64(b, int64(s.Epoch))
	b = appendI64(b, 0) // the class count of the retired score passes
	b = appendU32(b, uint32(len(s.LiveCuts)))
	for _, cuts := range s.LiveCuts {
		b = appendF64s(b, cuts)
	}
	b = appendU32(b, 0) // their combination list
	b = appendU32(b, uint32(len(s.Gens)))
	for i := range s.Gens {
		b = appendGenSpec(b, &s.Gens[i])
	}
	b = appendU32(b, uint32(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		b = appendI64(b, int64(e.Base))
		b = appendGenSpec(b, &e.Gen)
		b = appendF64s(b, e.Cuts)
		b = appendBools(b, []bool{e.NeedCodes})
	}
	b = appendU32(b, uint32(len(s.Refines)))
	for i := range s.Refines {
		rf := &s.Refines[i]
		b = appendI64(b, int64(rf.Col))
		b = appendGenSpec(b, &rf.Gen)
		b = appendI64s(b, rf.Ranks)
		b = appendF64s(b, rf.Lo)
		b = appendF64s(b, rf.Hi)
		b = appendBools(b, rf.Resolved)
	}
	return b
}

func decodeRunPass(p []byte) (*runPass, error) {
	r := &reader{b: p[1:]}
	m := &runPass{PassID: int(r.i64())}
	m.Assign.Mod = int(r.i64())
	m.Assign.Residue = int(r.i64())
	hasExplicit := r.bools()
	explicit := r.ints() // never nil: an empty list is still a list
	if len(hasExplicit) == 1 && hasExplicit[0] {
		m.Assign.Explicit = explicit
	}
	s := &shard.PassSpec{
		Pass:  int(r.i64()),
		Kind:  shard.PassKind(r.u8()),
		Epoch: int(r.i64()),
	}
	// Two words of the v1 layout belonged to the score passes (shard's retired
	// kinds 3–5): a class count, which nothing reads any more, and a
	// combination list, which no pass that still runs can carry.
	r.i64()
	if n := r.length(4); !r.fail {
		s.LiveCuts = make([][]float64, n)
		for i := range s.LiveCuts {
			s.LiveCuts[i] = r.f64s()
		}
	}
	if n := r.u32(); n != 0 && !r.fail {
		return nil, protoErr("runPass carries %d combinations to score: the score passes are retired", n)
	}
	if n := r.length(8); !r.fail {
		s.Gens = make([]shard.GenSpec, n)
		for i := range s.Gens {
			s.Gens[i] = readGenSpec(r)
		}
	}
	if n := r.length(24); !r.fail {
		s.Entries = make([]shard.EntrySpec, n)
		for i := range s.Entries {
			s.Entries[i].Base = int(r.i64())
			s.Entries[i].Gen = readGenSpec(r)
			s.Entries[i].Cuts = r.f64s()
			if flags := r.bools(); len(flags) == 1 {
				s.Entries[i].NeedCodes = flags[0]
			}
		}
	}
	if n := r.length(32); !r.fail {
		s.Refines = make([]shard.RefineSpec, n)
		for i := range s.Refines {
			s.Refines[i].Col = int(r.i64())
			s.Refines[i].Gen = readGenSpec(r)
			s.Refines[i].Ranks = r.i64s()
			s.Refines[i].Lo = r.f64s()
			s.Refines[i].Hi = r.f64s()
			s.Refines[i].Resolved = r.bools()
		}
	}
	m.Spec = s
	return m, r.done("runPass")
}

// --- partial ---

// partialMsg is one received partial and the memory it lives in: a container
// the coordinator recycles (partialPool) so that a steady stream of partials
// decodes into the same backings instead of fresh ones.
type partialMsg struct {
	PassID  int
	Partial shard.Partial
	slab    []byte // backing of Partial.Blobs[i] and Partial.Codes[i]
}

// partialSize is the exact length of the partial message AppendPartial
// writes for p.
func partialSize(kind shard.PassKind, p *shard.Partial) int {
	n := 1 + 4*8 + (4 + 8*len(p.Labels)) + 4 + (4 + 4*len(p.Ints)) + 4
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
// no byte of a partial is written twice on its way out. A worker passes the previous frame's buffer, so a
// pass of like-sized partials is framed in one allocation. Exported, with
// DecodePartial, so the seam tests in internal/shard can put a partial
// through the same bytes a worker sends.
func AppendPartial(dst []byte, passID int, kind shard.PassKind, p *shard.Partial) []byte {
	b := dst
	if need := len(dst) + partialSize(kind, p); cap(dst) < need {
		b = append(make([]byte, 0, need), dst...)
	}
	b = appendU8(b, msgPartial)
	b = appendI64(b, int64(passID))
	b = appendI64(b, int64(p.Chunk))
	b = appendI64(b, int64(p.Start))
	b = appendI64(b, int64(p.Rows))
	b = appendF64s(b, p.Labels)
	nb := p.BlobCount(kind)
	b = appendU32(b, uint32(nb))
	for i := 0; i < nb; i++ {
		at := len(b)
		b = p.AppendBlob(appendU32(b, 0), kind, i)
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	b = appendI32s(b, p.Ints)
	b = appendU32(b, uint32(len(p.Codes)))
	for _, codes := range p.Codes {
		b = appendBytes(b, codes)
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
	return m.PassID, &m.Partial, nil
}

// decodePartial fills m from a partial message, reusing the backings m kept
// from the partial it held before. Everything is copied out of p, which is
// typically a connection's receive buffer and is overwritten by the next
// frame.
func decodePartial(p []byte, m *partialMsg) error {
	r := &reader{b: p[1:]}
	m.PassID = int(r.i64())
	// Only the plain backings carry over; the typed payload a fold decoded
	// into the previous tenant is dropped with the rest of it.
	old := m.Partial
	m.Partial = shard.Partial{Chunk: int(r.i64()), Start: int(r.i64()), Rows: int(r.i64())}
	m.Partial.Labels = r.f64sInto(old.Labels)
	// Blob and code bytes are a subset of the message, so one slab of its
	// length holds them all.
	if m.slab = m.slab[:0]; cap(m.slab) < len(p) {
		m.slab = make([]byte, 0, len(p))
	}
	m.Partial.Blobs = resize(old.Blobs, r.length(4))
	for i := range m.Partial.Blobs {
		m.Partial.Blobs[i] = r.bytesInto(&m.slab)
	}
	m.Partial.Ints = r.i32sInto(old.Ints)
	m.Partial.Codes = resize(old.Codes, r.length(4))
	for i := range m.Partial.Codes {
		m.Partial.Codes[i] = r.bytesInto(&m.slab)
	}
	return r.done("partial")
}

// --- passDone / passErr ---

type passDone struct {
	PassID  int
	Chunks  int
	Rows    int64
	Retries int64
}

func encodePassDone(m *passDone) []byte {
	b := appendU8(nil, msgPassDone)
	b = appendI64(b, int64(m.PassID))
	b = appendI64(b, int64(m.Chunks))
	b = appendI64(b, m.Rows)
	b = appendI64(b, m.Retries)
	return b
}

func decodePassDone(p []byte) (*passDone, error) {
	r := &reader{b: p[1:]}
	m := &passDone{
		PassID:  int(r.i64()),
		Chunks:  int(r.i64()),
		Rows:    r.i64(),
		Retries: r.i64(),
	}
	return m, r.done("passDone")
}

type passErr struct {
	PassID    int
	Chunk     int // 0-based chunk ordinal, -1 unknown
	Attempts  int
	Transient bool
	Msg       string
}

func encodePassErr(m *passErr) []byte {
	b := appendU8(nil, msgPassErr)
	b = appendI64(b, int64(m.PassID))
	b = appendI64(b, int64(m.Chunk))
	b = appendI64(b, int64(m.Attempts))
	b = appendBools(b, []bool{m.Transient})
	return appendString(b, m.Msg)
}

func decodePassErr(p []byte) (*passErr, error) {
	r := &reader{b: p[1:]}
	m := &passErr{PassID: int(r.i64()), Chunk: int(r.i64()), Attempts: int(r.i64())}
	if flags := r.bools(); len(flags) == 1 {
		m.Transient = flags[0]
	}
	m.Msg = r.str()
	return m, r.done("passErr")
}

func encodeShutdown() []byte { return appendU8(nil, msgShutdown) }
