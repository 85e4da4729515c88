package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
)

// Coordinator implements shard.Executor over a set of worker connections:
// each streaming pass is assigned across the live workers by partition
// residue, partials are folded strictly in partition-index order (duplicates
// dropped, gaps awaited), and faults are absorbed below the fold — transient
// frame errors retry on the shard retry schedule, and a worker death after
// the partition count is known reassigns its unfolded partitions to the
// survivors. Every recovery path preserves the fold sequence, so a
// recovered fit selects bit-identically to a fault-free one.
//
// A Coordinator serves one fit. It is not safe for concurrent use (the
// shard fit loop calls Open/SetLive/RunPass serially); Close may be called
// once, after the fit, from the owning goroutine.
type Coordinator struct {
	// TransportRetry bounds transient frame-receive retries per message
	// (defaults to shard.DefaultRetryPolicy).
	TransportRetry shard.RetryPolicy
	// SourceRetry is the chunk-read retry policy workers apply below their
	// partition streams (zero value: no retrying).
	SourceRetry shard.RetryPolicy

	src     SourceSpec
	workers []*workerConn
	events  chan event
	closed  chan struct{}
	wg      sync.WaitGroup

	opened    bool
	chunks    int          // partitions per pass; 0 until the first pass completes
	transient atomic.Int64 // transport retries absorbed, all readers
	partials  partialPool  // containers the readers decode partials into

	closeOnce sync.Once
}

// workerConn is the coordinator's view of one worker.
type workerConn struct {
	id   int
	conn Conn
	send sync.Mutex // serialises frames from concurrent coordinator sends

	alive       bool
	outstanding int // assignments sent but not passDone'd (current pass)
	assigns     []assignment

	// free wakes the reader once the pass loop has let go of the partial it
	// last routed, which reads the connection's receive buffer (release).
	free chan struct{}
}

// event is one routed worker message (or the worker's permanent failure).
type event struct {
	worker int
	msg    any   // *ack, *partialMsg, *passDone, *passErr
	err    error // permanent transport failure: the worker is gone
}

// NewCoordinator builds a coordinator over the given worker connections.
// src names the dataset every worker streams; conns carry the protocol
// (NewConn over TCP, Pipe for in-process, Chaos for fault injection).
func NewCoordinator(src SourceSpec, conns ...Conn) *Coordinator {
	c := &Coordinator{
		TransportRetry: shard.DefaultRetryPolicy(),
		src:            src,
		events:         make(chan event, 64),
		closed:         make(chan struct{}),
	}
	for i, conn := range conns {
		c.workers = append(c.workers, &workerConn{id: i, conn: conn, alive: true, free: make(chan struct{}, 1)})
	}
	return c
}

// Workers returns how many workers are still alive.
func (c *Coordinator) Workers() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// Close ends the session by closing every connection — workers treat the
// resulting EOF as a clean hangup (ServeConn returns nil), and closing is
// the one action guaranteed to unblock any in-flight send or receive, so
// Close never hangs even after an aborted fit left a worker mid-stream.
// Waits for the reader goroutines to drain; safe after a failed fit;
// idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		for _, w := range c.workers {
			_ = w.conn.Close()
		}
	})
	c.wg.Wait()
	return nil
}

// recvDirect receives one frame outside the reader loop (handshake only),
// absorbing transient faults on the retry schedule.
func (c *Coordinator) recvDirect(ctx context.Context, w *workerConn) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		msg, err := w.conn.Recv()
		if err == nil {
			return msg, nil
		}
		if !frame.IsTransient(err) || attempt >= c.TransportRetry.MaxAttempts {
			return nil, err
		}
		if serr := sleepCtx(ctx, c.TransportRetry.Delay(attempt)); serr != nil {
			return nil, serr
		}
		c.transient.Add(1)
	}
}

// Open implements shard.Executor: handshake and fitOpen on every
// connection, then the per-worker reader goroutines start. All workers must
// open successfully — a fit that cannot reach its fleet should fail fast,
// before any pass. The sketch size is ignored (see shard.Executor).
func (c *Coordinator) Open(ctx context.Context, names []string, task core.Task, _ int) error {
	if len(c.workers) == 0 {
		return errors.New("dist: coordinator has no workers")
	}
	if c.opened {
		return errors.New("dist: coordinator already opened")
	}
	open := encodeFitOpen(&fitOpen{
		Source: c.src,
		Names:  names,
		Task:   task,
		Retry:  c.SourceRetry,
	})
	for _, w := range c.workers {
		if err := w.conn.Send(encodeHello()); err != nil {
			return fmt.Errorf("dist: worker %d hello: %w", w.id, err)
		}
		msg, err := c.recvDirect(ctx, w)
		if err != nil {
			return fmt.Errorf("dist: worker %d handshake: %w", w.id, err)
		}
		if len(msg) == 0 || msg[0] != msgHelloAck {
			return protoErr("worker %d answered handshake with message type %d", w.id, msgType(msg))
		}
		if err := decodeHelloAck(msg); err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.id, err)
		}
		if err := w.conn.Send(open); err != nil {
			return fmt.Errorf("dist: worker %d fitOpen: %w", w.id, err)
		}
		msg, err = c.recvDirect(ctx, w)
		if err != nil {
			return fmt.Errorf("dist: worker %d fitOpen: %w", w.id, err)
		}
		if len(msg) == 0 || msg[0] != msgAck {
			return protoErr("worker %d answered fitOpen with message type %d", w.id, msgType(msg))
		}
		a, err := decodeAck(msg)
		if err != nil {
			return fmt.Errorf("dist: worker %d: %w", w.id, err)
		}
		if !a.OK {
			return fmt.Errorf("dist: worker %d rejected fit: %s", w.id, a.Msg)
		}
	}
	c.opened = true
	for _, w := range c.workers {
		c.wg.Add(1)
		go c.reader(w)
	}
	return nil
}

// msgType safely extracts a message's type byte for error text.
func msgType(msg []byte) int {
	if len(msg) == 0 {
		return -1
	}
	return int(msg[0])
}

// reader is one worker's receive loop: frames decode and route to the
// shared event channel; transient faults retry in place on the shard
// schedule; the first permanent failure emits a death event and ends the
// loop. Exits when the coordinator closes. A partial is routed as views of the
// message, which is the connection's receive buffer, so the loop does not
// receive again until the pass loop has released it.
func (c *Coordinator) reader(w *workerConn) {
	defer c.wg.Done()
	attempt := 1
	for {
		msg, err := w.conn.Recv()
		if err != nil {
			if frame.IsTransient(err) && attempt < c.TransportRetry.MaxAttempts {
				if serr := c.sleepClosed(c.TransportRetry.Delay(attempt)); serr != nil {
					return
				}
				attempt++
				c.transient.Add(1)
				continue
			}
			c.emit(event{worker: w.id, err: err})
			return
		}
		attempt = 1
		var decoded any
		switch msgType(msg) {
		case msgAck:
			decoded, err = decodeAck(msg)
		case msgPartial:
			m := c.partials.take()
			m.free = w.free
			decoded, err = m, decodePartial(msg, m)
		case msgPassDone:
			decoded, err = decodePassDone(msg)
		case msgPassErr:
			decoded, err = decodePassErr(msg)
		default:
			err = protoErr("unexpected message type %d from worker %d", msgType(msg), w.id)
		}
		if err != nil {
			c.emit(event{worker: w.id, err: err})
			return
		}
		if !c.emit(event{worker: w.id, msg: decoded}) {
			return
		}
		if _, ok := decoded.(*partialMsg); ok {
			select {
			case <-w.free:
			case <-c.closed:
				return
			}
		}
	}
}

// emit routes one event unless the coordinator is closed.
func (c *Coordinator) emit(ev event) bool {
	select {
	case c.events <- ev:
		return true
	case <-c.closed:
		return false
	}
}

// sleepClosed waits d or until the coordinator closes.
func (c *Coordinator) sleepClosed(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closed:
		return errors.New("dist: coordinator closed")
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// next blocks for the next worker event or context cancellation.
func (c *Coordinator) next(ctx context.Context) (event, error) {
	select {
	case ev := <-c.events:
		return ev, nil
	case <-ctx.Done():
		return event{}, ctx.Err()
	}
}

// sendAsync ships a frame to a worker without blocking the event loop (a
// synchronous send could deadlock against a worker that is itself blocked
// sending partials). Failures surface as death events.
func (c *Coordinator) sendAsync(w *workerConn, msg []byte) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		w.send.Lock()
		err := w.conn.Send(msg)
		w.send.Unlock()
		if err != nil {
			c.emit(event{worker: w.id, err: fmt.Errorf("send: %w", err)})
		}
	}()
}

// SetLive implements shard.Executor: the epoch broadcasts to every live
// worker and all of them must acknowledge it before any pass runs against
// it.
func (c *Coordinator) SetLive(ctx context.Context, epoch int, nodes []shard.NodeSpec, live []string) error {
	msg := encodeSetLive(&setLive{Epoch: epoch, Nodes: nodes, Live: live})
	waiting := 0
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		c.sendAsync(w, msg)
		waiting++
	}
	if waiting == 0 {
		return errors.New("dist: no live workers")
	}
	for waiting > 0 {
		ev, err := c.next(ctx)
		if err != nil {
			return err
		}
		if ev.err != nil {
			c.workers[ev.worker].alive = false
			waiting--
			if c.Workers() == 0 {
				return fmt.Errorf("dist: all workers lost: %w", ev.err)
			}
			continue
		}
		a, ok := ev.msg.(*ack)
		if !ok {
			if m, isPartial := ev.msg.(*partialMsg); isPartial {
				c.partials.put(m)
			}
			continue // stale pass traffic from an aborted fit; ignore
		}
		if !a.OK {
			return fmt.Errorf("dist: worker %d rejected live epoch %d: %s", ev.worker, epoch, a.Msg)
		}
		if a.Epoch != epoch {
			return protoErr("worker %d acknowledged epoch %d, want %d", ev.worker, a.Epoch, epoch)
		}
		waiting--
	}
	return nil
}

// passState tracks one pass's fold frontier.
type passState struct {
	pending  map[int]*partialMsg
	nextFold int
	rows     int
	retries  int64
}

// RunPass implements shard.Executor. fold runs on the calling goroutine, in
// ascending partition order, exactly once per partition.
func (c *Coordinator) RunPass(ctx context.Context, spec *shard.PassSpec, fold func(*shard.Partial) error) (shard.PassResult, error) {
	var res shard.PassResult
	if !c.opened {
		return res, errors.New("dist: coordinator not opened")
	}
	passID := spec.Pass
	startTransient := c.transient.Load()

	// Assign residue classes across the live workers.
	live := c.liveWorkers()
	if len(live) == 0 {
		return res, errors.New("dist: no live workers")
	}
	for _, w := range c.workers {
		w.outstanding = 0
		w.assigns = w.assigns[:0]
	}
	for k, w := range live {
		a := assignment{Mod: len(live), Residue: k}
		w.assigns = append(w.assigns, a)
		w.outstanding++
		c.sendAsync(w, encodeRunPass(&runPass{PassID: passID, Assign: a, Spec: spec}))
	}

	// The containers were sized by this pass's partials; the next pass grows
	// its own rather than inherit, say, the candidate-sketch pass's ~10 MB each.
	defer c.partials.drop()
	st := &passState{pending: make(map[int]*partialMsg)}
	for c.passActive() {
		ev, err := c.next(ctx)
		if err != nil {
			return res, err
		}
		if ev.err != nil {
			if err := c.workerLost(spec, passID, ev, st); err != nil {
				return res, err
			}
			continue
		}
		switch m := ev.msg.(type) {
		case *partialMsg:
			if m.PassID != passID {
				c.partials.put(m) // stale partial from an aborted pass
				continue
			}
			if err := c.foldPartial(spec, m, st, fold); err != nil {
				return res, err
			}
		case *passDone:
			if m.PassID != passID {
				continue
			}
			w := c.workers[ev.worker]
			if w.outstanding > 0 {
				w.outstanding--
				st.retries += m.Retries
			}
		case *passErr:
			if m.PassID != passID {
				continue
			}
			return res, &shard.PassError{
				Pass: spec.Pass, Chunk: m.Chunk, Attempts: max(m.Attempts, 1),
				Err: fmt.Errorf("dist: worker %d: %s", ev.worker, m.Msg),
			}
		case *ack:
			// Stale ack; nothing to do.
		}
	}
	if len(st.pending) > 0 {
		return res, protoErr("pass %d folded %d partitions with %d stranded beyond a gap", spec.Pass, st.nextFold, len(st.pending))
	}
	if c.chunks > 0 && st.nextFold != c.chunks {
		return res, protoErr("pass %d folded %d partitions, want %d", spec.Pass, st.nextFold, c.chunks)
	}
	if c.chunks == 0 {
		c.chunks = st.nextFold
	}
	res.Rows = st.rows
	res.Parts = st.nextFold
	res.Retries = st.retries + (c.transient.Load() - startTransient)
	return res, nil
}

// passActive reports whether any worker still owes pass results.
func (c *Coordinator) passActive() bool {
	for _, w := range c.workers {
		if w.alive && w.outstanding > 0 {
			return true
		}
	}
	return false
}

// liveWorkers returns the live workers in id order.
func (c *Coordinator) liveWorkers() []*workerConn {
	var out []*workerConn
	for _, w := range c.workers {
		if w.alive {
			out = append(out, w)
		}
	}
	return out
}

// foldPartial advances the fold frontier with one arrived partial:
// duplicates (below the frontier or already pending) drop, then every
// consecutively available partition folds in index order. A partial beyond a
// gap is copied out of its connection's receive buffer before it waits, since
// the gap's partial may come through that same connection. A container goes
// back to the pool, and its reader receives again, only once fold has
// returned — a decorated fold still reads the partial's plain fields after
// the fit's own fold is done with it.
func (c *Coordinator) foldPartial(spec *shard.PassSpec, m *partialMsg, st *passState, fold func(*shard.Partial) error) error {
	idx := m.Partial.Chunk
	if idx < 0 || (c.chunks > 0 && idx >= c.chunks) {
		c.partials.put(m)
		return protoErr("pass %d partial for partition %d outside [0,%d)", spec.Pass, idx, c.chunks)
	}
	if _, dup := st.pending[idx]; dup || idx < st.nextFold {
		c.partials.put(m) // duplicate of a pending or already-folded partition
		return nil
	}
	if idx > st.nextFold {
		m.keep()
		m.release()
	}
	st.pending[idx] = m
	for {
		q, ok := st.pending[st.nextFold]
		if !ok {
			return nil
		}
		delete(st.pending, st.nextFold)
		err := fold(&q.Partial)
		rows := q.Partial.Rows
		c.partials.put(q)
		if err != nil {
			return err
		}
		st.rows += rows
		st.nextFold++
	}
}

// partialPool recycles partial containers between the reader goroutines,
// which take one per received partial, and the pass loop, which puts it back
// after the fold. The cap is soft — take allocates when the pool is empty,
// put drops beyond maxPooledPartials: a quota that made readers wait would
// deadlock under reassignment, where a survivor is handed a dead worker's
// partition below ones of its own that are already pending.
type partialPool struct {
	mu   sync.Mutex
	free []*partialMsg
}

// maxPooledPartials bounds the idle containers kept during a pass.
const maxPooledPartials = 4

func (p *partialPool) take() *partialMsg {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	return &partialMsg{}
}

// put ends a received partial's life: its reader is released, and the
// container kept for the next one.
func (p *partialPool) put(m *partialMsg) {
	m.release()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < maxPooledPartials {
		p.free = append(p.free, m)
	}
}

// drop releases every idle container.
func (p *partialPool) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = nil
}

// workerLost handles a worker's permanent failure mid-pass: partitions the
// dead worker still owed (not folded, not pending) reassign to the
// survivors in explicit lists. Reassignment needs the partition count —
// a death during the very first pass, before the source geometry is known,
// aborts the fit.
func (c *Coordinator) workerLost(spec *shard.PassSpec, passID int, ev event, st *passState) error {
	w := c.workers[ev.worker]
	wasAlive := w.alive
	w.alive = false
	if !wasAlive || w.outstanding == 0 {
		return nil // already dead, or had finished this pass: nothing owed
	}
	w.outstanding = 0
	missing := c.missingChunks(w, st)
	if len(missing) == 0 {
		return nil
	}
	survivors := c.liveWorkers()
	if len(survivors) == 0 {
		return &shard.PassError{
			Pass: spec.Pass, Chunk: st.nextFold, Attempts: c.TransportRetry.MaxAttempts,
			Err: fmt.Errorf("dist: all workers lost: %w", ev.err),
		}
	}
	if c.chunks == 0 {
		return &shard.PassError{
			Pass: spec.Pass, Chunk: st.nextFold, Attempts: 1,
			Err: fmt.Errorf("dist: worker %d lost before the partition count was known: %w", ev.worker, ev.err),
		}
	}
	shares := make([][]int, len(survivors))
	for i, idx := range missing {
		shares[i%len(survivors)] = append(shares[i%len(survivors)], idx)
	}
	for i, s := range survivors {
		if len(shares[i]) == 0 {
			continue
		}
		a := assignment{Explicit: shares[i]}
		s.assigns = append(s.assigns, a)
		s.outstanding++
		c.sendAsync(s, encodeRunPass(&runPass{PassID: passID, Assign: a, Spec: spec}))
	}
	return nil
}

// missingChunks lists the partitions a dead worker's assignments still owe:
// in any of its assignment sets, below the known partition count, and
// neither folded nor pending.
func (c *Coordinator) missingChunks(w *workerConn, st *passState) []int {
	var missing []int
	for idx := st.nextFold; idx < c.chunks; idx++ {
		if _, ok := st.pending[idx]; ok {
			continue
		}
		for _, a := range w.assigns {
			if a.has(idx) {
				missing = append(missing, idx)
				break
			}
		}
	}
	return missing
}

var _ shard.Executor = (*Coordinator)(nil)
