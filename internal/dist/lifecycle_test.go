package dist

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// distLeakCheck snapshots the goroutine count and asserts the process
// returns to it (the shard compute pools are persistent by design, so
// callers take the baseline after a warmup fit has populated them).
func distLeakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// runDistOnce drives one full distributed fit over a fresh fleet and tears
// everything down: coordinator closed, fleet cancelled and drained.
func runDistOnce(t *testing.T, spec SourceSpec, cfg core.Config, transport string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var fl *fleet
	if transport == "pipe" {
		fl = pipeFleet(t, ctx, 2)
	} else {
		fl = tcpFleet(t, ctx, 2)
	}
	distFit(t, ctx, spec, fl.conns, cfg)
	cancel()
	fl.wait()
}

// TestDistributedLifecycleNoLeak pins clean teardown on the happy path:
// after complete fits over both transports, closing the coordinator and
// draining the fleet leaves no goroutine behind. Runs under -race in CI.
func TestDistributedLifecycleNoLeak(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	tc := taskCases()[0]
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	spec := writeSource(t, train, SourceColstore, chunkRows)

	// Warm both transports once so persistent pools exist, then baseline.
	runDistOnce(t, spec, cfg, "pipe")
	runDistOnce(t, spec, cfg, "tcp")
	check := distLeakCheck(t)
	runDistOnce(t, spec, cfg, "pipe")
	runDistOnce(t, spec, cfg, "tcp")
	check()
}

// hookConn fires a callback once, after its Nth successfully received
// frame — used to cancel a fit at a deterministic depth.
type hookConn struct {
	Conn
	after int
	hook  func()
	n     int
	once  sync.Once
}

func (h *hookConn) Recv() ([]byte, error) {
	msg, err := h.Conn.Recv()
	if err == nil {
		h.n++
		if h.n >= h.after {
			h.once.Do(h.hook)
		}
	}
	return msg, err
}

// TestDistributedFitCancelMidFit pins prompt abort: the fit context is
// cancelled mid-pass (several partials already folded, workers still
// streaming), shard.Fit must return the context error, and closing the
// coordinator must drain its readers and senders without leaking a
// goroutine — even though the workers are still alive and mid-send. Over a
// CSV the workers are spilling (frame 4 lands in the first pass, the tee) or
// reading their spill's mapping (frame 10), and either way the drained
// sessions leave nothing in the temp directory.
func TestDistributedFitCancelMidFit(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	tc := taskCases()[0]
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	for _, c := range []struct {
		name  string
		kind  int
		after int // a clean fit delivers 19 frames per worker
	}{
		{"colstore", SourceColstore, 10},
		{"csv/tee", SourceCSV, 4},
		{"csv/mapped", SourceCSV, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			empty := emptyTempDir(t)
			spec := writeSource(t, train, c.kind, chunkRows)

			runDistOnce(t, spec, cfg, "pipe")
			check := distLeakCheck(t)

			// The fleet outlives the fit on purpose: only the fit's context is
			// cancelled, so the abort is the coordinator's to handle.
			fleetCtx, fleetCancel := context.WithCancel(context.Background())
			fl := pipeFleet(t, fleetCtx, 2)
			fitCtx, fitCancel := context.WithCancel(context.Background())
			defer fitCancel()
			fl.conns[0] = &hookConn{Conn: fl.conns[0], after: c.after, hook: fitCancel}

			coord := NewCoordinator(spec, fl.conns...)
			src := openLocal(t, spec)
			_, _, _, err := shard.Fit(fitCtx, src, shard.Config{Core: cfg, Exec: coord})
			if err == nil {
				t.Fatal("fit completed despite mid-pass cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled fit returned %v, want context.Canceled", err)
			}
			coord.Close()
			fleetCancel()
			fl.wait()
			check()
			empty()
		})
	}
}

// TestServerDrainOnCancel pins the worker server's lifecycle: cancelling the
// serve context closes the listener and every in-flight session, Serve
// returns the context error after the drain, and no goroutine survives.
func TestServerDrainOnCancel(t *testing.T) {
	check := distLeakCheck(t)
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx) }()

	// Open a session and complete the handshake so the drain has a live
	// connection to unwind, not just the listener.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(nc)
	defer conn.Close()
	if err := conn.Send(encodeHello()); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeHelloAck(msg); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v after cancellation, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain within 5s of cancellation")
	}
	// The session's connection must be dead from the client's side too.
	if _, err := conn.Recv(); err == nil {
		t.Fatal("session connection still delivering frames after server drain")
	}
	check()
}
