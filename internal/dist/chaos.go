package dist

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChaosPlan seeds deterministic transport faults for testing the
// coordinator's recovery paths. Rates are per received partial frame;
// faults never touch handshake or control frames, so a chaotic run differs
// from a clean one only in when (not whether) partials arrive — and the
// partition-ordered fold keeps the fit bit-identical.
type ChaosPlan struct {
	// Seed drives the fault schedule; the same seed replays the same faults.
	Seed int64
	// DropRate is the probability a partial frame first surfaces as a
	// transient error; the frame is retained and delivered by the retry.
	DropRate float64
	// DupRate is the probability a partial frame is delivered twice; the
	// coordinator drops the duplicate by partition index.
	DupRate float64
	// DelayRate is the probability a partial frame is delayed by up to
	// MaxDelay before delivery.
	DelayRate float64
	// MaxDelay bounds injected delays (default 2ms).
	MaxDelay time.Duration
	// KillAfter, when > 0, kills the connection permanently after that many
	// received frames of any type — a worker death mid-pass.
	KillAfter int
}

// transientFault is a retryable transport error; frame.IsTransient
// recognises it through the Transienter interface.
type transientFault struct {
	msg string
}

func (e *transientFault) Error() string   { return "dist: transient: " + e.msg }
func (e *transientFault) Transient() bool { return true }

// killedError is the permanent error of a chaos-killed connection.
type killedError struct{}

func (killedError) Error() string { return "dist: chaos: connection killed" }

// chaosConn wraps a Conn's receive side with the plan's fault schedule.
type chaosConn struct {
	inner Conn
	plan  ChaosPlan

	mu     sync.Mutex
	rng    *rand.Rand
	held   []byte // frame withheld by a drop, delivered on retry
	dup    []byte // duplicate frame queued for redelivery
	frames int
	killed bool
}

// Chaos wraps a connection with a seeded fault plan. Use on the
// coordinator's end: injected faults then exercise exactly the retry,
// dedup, and reassignment paths a flaky network would.
func Chaos(inner Conn, plan ChaosPlan) Conn {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 2 * time.Millisecond
	}
	return &chaosConn{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Send implements Conn; the send side is fault-free (coordinator requests
// are cheap to keep reliable; the interesting recovery paths are on
// responses).
func (c *chaosConn) Send(msg []byte) error {
	c.mu.Lock()
	killed := c.killed
	c.mu.Unlock()
	if killed {
		return killedError{}
	}
	return c.inner.Send(msg)
}

// Recv implements Conn with the fault schedule. The mutex is never held
// across the blocking inner read — Send must stay callable from another
// goroutine while a Recv is in flight, or a synchronous transport
// (net.Pipe) deadlocks.
func (c *chaosConn) Recv() ([]byte, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return nil, killedError{}
	}
	if c.held != nil {
		msg := c.held
		c.held = nil
		c.mu.Unlock()
		return msg, nil
	}
	if c.dup != nil {
		msg := c.dup
		c.dup = nil
		c.mu.Unlock()
		return msg, nil
	}
	c.mu.Unlock()
	msg, err := c.inner.Recv()
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return nil, killedError{}
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.frames++
	if c.plan.KillAfter > 0 && c.frames >= c.plan.KillAfter {
		c.killed = true
		c.mu.Unlock()
		c.inner.Close()
		return nil, killedError{}
	}
	if len(msg) == 0 || msg[0] != msgPartial {
		c.mu.Unlock()
		return msg, nil
	}
	roll := c.rng.Float64()
	switch {
	case roll < c.plan.DropRate:
		// Not copied: the retry delivers it before the inner Recv runs again,
		// which is as long as the inner connection keeps it valid.
		c.held = msg
		frames := c.frames
		c.mu.Unlock()
		return nil, &transientFault{msg: fmt.Sprintf("injected drop of frame %d", frames)}
	case roll < c.plan.DropRate+c.plan.DupRate:
		c.dup = append([]byte(nil), msg...)
		c.mu.Unlock()
		return msg, nil
	case roll < c.plan.DropRate+c.plan.DupRate+c.plan.DelayRate:
		d := time.Duration(c.rng.Int63n(int64(c.plan.MaxDelay) + 1))
		c.mu.Unlock()
		time.Sleep(d)
		return msg, nil
	}
	c.mu.Unlock()
	return msg, nil
}

// Close implements Conn.
func (c *chaosConn) Close() error { return c.inner.Close() }
