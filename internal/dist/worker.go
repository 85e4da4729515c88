package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/frame"
	"repro/internal/shard"
)

// ServeConn runs one worker session over a connection: hello handshake,
// fitOpen (the worker opens its own handle on the shared dataset), then a
// loop of setLive epochs and streaming passes until the coordinator sends
// shutdown or the connection ends. Cancelling ctx closes the connection,
// which unblocks any in-flight Recv — a SIGTERM'd worker drains its current
// send and exits.
//
// Returns nil on a clean shutdown (or the coordinator hanging up between
// messages), ctx.Err() on cancellation, and the underlying error otherwise.
func ServeConn(ctx context.Context, conn Conn) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	s := &session{ctx: ctx, conn: conn}
	defer s.closeSource()
	for {
		msg, err := conn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator hung up between messages
			}
			return err
		}
		switch msgType(msg) {
		case msgHello:
			if err := decodeHello(msg); err != nil {
				return err
			}
			if err := conn.Send(encodeHelloAck()); err != nil {
				return err
			}
		case msgFitOpen:
			if err := s.handleFitOpen(msg); err != nil {
				return err
			}
		case msgSetLive:
			if err := s.handleSetLive(msg); err != nil {
				return err
			}
		case msgRunPass:
			if err := s.handleRunPass(msg); err != nil {
				return err
			}
		case msgShutdown:
			return nil
		default:
			return protoErr("unexpected message type %d", msgType(msg))
		}
	}
}

// session is one coordinator's state on a worker: the open dataset handle
// and the pass-compute state machine.
type session struct {
	ctx    context.Context
	conn   Conn
	ws     *shard.WorkerState
	src    frame.ChunkSource
	closer io.Closer

	retries     int64 // written atomically by the retry source
	sentRetries int64 // retries already reported in a passDone

	// frame is the buffer every partial of the session is framed in, grown
	// only for a partial larger than all before it.
	frame []byte
}

func (s *session) closeSource() {
	if s.closer != nil {
		_ = s.closer.Close()
		s.closer = nil
	}
	s.src = nil
}

// openSource opens the worker's own handle on the dataset named by the
// spec.
func (s *session) openSource(spec *SourceSpec) (frame.ChunkSource, io.Closer, error) {
	switch spec.Kind {
	case SourceCSV:
		// Parsed once per session: after the first pass the file's chunks come
		// from a local temp column file, so a partition this worker is not
		// assigned costs a pointer step instead of a parse.
		src, err := colstore.OpenCSV(spec.Path, spec.Label, spec.ChunkRows)
		if err != nil {
			return nil, nil, err
		}
		return src, src, nil
	case SourceColstore:
		src, err := colstore.OpenSource(spec.Path)
		if err != nil {
			return nil, nil, err
		}
		return src, src, nil
	default:
		return nil, nil, protoErr("unknown source kind %d", spec.Kind)
	}
}

// handleFitOpen opens the dataset and builds the pass-compute state. The
// outcome goes back as an ack; only transport failures end the session.
func (s *session) handleFitOpen(msg []byte) error {
	o, err := decodeFitOpen(msg)
	if err != nil {
		return err
	}
	s.closeSource()
	s.ws = nil
	src, closer, err := s.openSource(&o.Source)
	if err != nil {
		return s.conn.Send(encodeAck(&ack{Re: msgFitOpen, Msg: fmt.Sprintf("open source: %v", err)}))
	}
	got := src.Names()
	if len(got) != len(o.Names) {
		closer.Close()
		return s.conn.Send(encodeAck(&ack{Re: msgFitOpen,
			Msg: fmt.Sprintf("source has %d columns, coordinator expects %d", len(got), len(o.Names))}))
	}
	for i, name := range got {
		if name != o.Names[i] {
			closer.Close()
			return s.conn.Send(encodeAck(&ack{Re: msgFitOpen,
				Msg: fmt.Sprintf("source column %d is %q, coordinator expects %q", i, name, o.Names[i])}))
		}
	}
	s.ws = shard.NewWorkerState(o.Names, o.Task)
	s.closer = closer
	s.src = shard.NewRetrySource(s.ctx, src, o.Retry, &s.retries)
	return s.conn.Send(encodeAck(&ack{Re: msgFitOpen, OK: true}))
}

// handleSetLive installs a live-set epoch and acknowledges it.
func (s *session) handleSetLive(msg []byte) error {
	m, err := decodeSetLive(msg)
	if err != nil {
		return err
	}
	if s.ws == nil {
		return s.conn.Send(encodeAck(&ack{Re: msgSetLive, Epoch: m.Epoch, Msg: "no fit open"}))
	}
	if err := s.ws.SetLive(m.Epoch, m.Nodes, m.Live); err != nil {
		return s.conn.Send(encodeAck(&ack{Re: msgSetLive, Epoch: m.Epoch, Msg: err.Error()}))
	}
	return s.conn.Send(encodeAck(&ack{Re: msgSetLive, Epoch: m.Epoch, OK: true}))
}

// handleRunPass streams the whole source once, computes a partial for every
// assigned partition, and ships each as soon as it is ready; passDone
// closes the assignment. Compute and read failures report as passErr —
// positioned, permanent — and abandon the pass without ending the session
// (the coordinator decides whether the fit dies).
func (s *session) handleRunPass(msg []byte) error {
	m, err := decodeRunPass(msg)
	if err != nil {
		return err
	}
	if s.ws == nil || s.src == nil {
		return s.conn.Send(encodePassErr(&passErr{PassID: m.PassID, Chunk: -1, Attempts: 1, Msg: "no fit open"}))
	}
	if err := s.src.Reset(); err != nil {
		return s.conn.Send(encodePassErr(&passErr{PassID: m.PassID, Chunk: -1, Attempts: 1,
			Msg: fmt.Sprintf("reset source: %v", err)}))
	}
	done := passDone{PassID: m.PassID}
	idx := 0
	for {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		c, err := s.src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return s.sendReadErr(m.PassID, idx, err)
		}
		idx = c.Index + 1
		if !m.Assign.has(c.Index) {
			continue
		}
		p, err := s.ws.ComputePartial(s.ctx, m.Spec, c)
		if err != nil {
			return s.conn.Send(encodePassErr(&passErr{PassID: m.PassID, Chunk: c.Index, Attempts: 1, Msg: err.Error()}))
		}
		// The typed payload takes its wire form only here, at the process
		// edge; once the frame is sent the partial's pooled buffers go back.
		s.frame = AppendPartial(s.frame[:0], m.PassID, m.Spec.Kind, p)
		err = s.conn.Send(s.frame)
		done.Chunks++
		done.Rows += int64(p.Rows)
		s.ws.Release(p)
		if err != nil {
			return err
		}
	}
	total := atomic.LoadInt64(&s.retries)
	done.Retries = total - s.sentRetries
	s.sentRetries = total
	return s.conn.Send(encodePassDone(&done))
}

// sendReadErr reports a chunk-read failure (retries already exhausted below
// us) as a positioned passErr.
func (s *session) sendReadErr(passID, idx int, err error) error {
	if s.ctx.Err() != nil {
		return s.ctx.Err()
	}
	chunk, attempts := idx, 1
	var pe *shard.PassError
	if errors.As(err, &pe) {
		chunk, attempts = pe.Chunk, pe.Attempts
	}
	return s.conn.Send(encodePassErr(&passErr{PassID: passID, Chunk: chunk, Attempts: attempts, Msg: err.Error()}))
}

// Server accepts worker sessions over TCP; each connection serves one
// coordinator independently (its own dataset handle and pass state), so
// one worker process can serve several fits.
type Server struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[Conn]struct{}
}

// NewServer listens on addr (e.g. ":7070", "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{ln: ln, conns: make(map[Conn]struct{})}, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts sessions until ctx is cancelled or the listener closes,
// then waits for every in-flight session to drain. Session errors end that
// session only.
func (s *Server) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { s.ln.Close() })
	defer stop()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			for conn := range s.conns {
				conn.Close()
			}
			s.mu.Unlock()
			s.wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		conn := NewConn(nc)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = ServeConn(ctx, conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener; a concurrent Serve drains and returns.
func (s *Server) Close() error { return s.ln.Close() }
