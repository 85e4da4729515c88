package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// workerProcEnv re-execs the test binary as a worker process when set: the
// distributed acceptance pin needs real OS processes on the worker side, not
// goroutines sharing the coordinator's address space.
const workerProcEnv = "SAFE_DIST_TEST_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerProcEnv) == "1" {
		os.Exit(workerProcMain())
	}
	os.Exit(m.Run())
}

// workerProcMain is the re-exec'd worker: a Server on an ephemeral loopback
// port, its address announced on stdout, drained cleanly by SIGTERM — the
// same lifecycle cmd/safe-worker wires.
func workerProcMain() int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(srv.Addr())
	if err := srv.Serve(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// startWorkerProc spawns one worker process and returns its dialable
// address.
func startWorkerProc(t *testing.T) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerProcEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("worker process announced no address: %v", err)
	}
	return cmd, strings.TrimSpace(addr)
}

// waitProc waits for a process to exit, bounded.
func waitProc(cmd *exec.Cmd, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("still running after %v", d)
	}
}

// TestDistributedFitWorkerProcesses is the cross-process acceptance pin:
// two real worker OS processes (re-exec'd test binary) serve a fit over
// loopback TCP, the selection is bit-identical to the local sharded fit,
// and a SIGTERM afterwards drains both processes to a clean exit — the
// contract cmd/safe-worker documents.
func TestDistributedFitWorkerProcesses(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	tc := taskCases()[0] // binary
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	shardFP := localFingerprint(t, train, cfg, chunkRows)
	spec := writeSource(t, train, SourceColstore, chunkRows)

	var cmds []*exec.Cmd
	var conns []Conn
	for i := 0; i < 2; i++ {
		cmd, addr := startWorkerProc(t)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial worker process %d at %s: %v", i, addr, err)
		}
		cmds = append(cmds, cmd)
		conns = append(conns, NewConn(nc))
	}

	coord := NewCoordinator(spec, conns...)
	src := openLocal(t, spec)
	p, _, st, err := shard.Fit(context.Background(), src, shard.Config{Core: cfg, Exec: coord})
	if err != nil {
		t.Fatalf("fit over worker processes: %v", err)
	}
	coord.Close()
	if fp := fingerprint(p); fp != shardFP {
		t.Fatalf("fit over worker processes diverged from local fit:\n got: %s\nwant: %s", fp, shardFP)
	}
	if st.Partitions != parts {
		t.Fatalf("fit saw %d partitions, want %d", st.Partitions, parts)
	}

	for i, cmd := range cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signal worker process %d: %v", i, err)
		}
		if err := waitProc(cmd, 10*time.Second); err != nil {
			t.Fatalf("worker process %d did not drain cleanly on SIGTERM: %v", i, err)
		}
	}
}
