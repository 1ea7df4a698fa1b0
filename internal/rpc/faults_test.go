package rpc

import (
	"errors"
	"testing"
	"time"

	"dpnfs/internal/sim"
	"dpnfs/internal/xdr"
)

func TestRetryableClassifiesErrors(t *testing.T) {
	if !Retryable(&DownError{Node: "io1"}) {
		t.Fatal("DownError must be retryable")
	}
	if !Retryable(errWrap{&DownError{Node: "io1"}}) {
		t.Fatal("wrapped DownError must be retryable")
	}
	if Retryable(errors.New("disk on fire")) {
		t.Fatal("arbitrary errors must not be retryable")
	}
	if Retryable(StatusSystemErr) {
		t.Fatal("RPC status errors must not be retryable")
	}
	if Retryable(nil) {
		t.Fatal("nil must not be retryable")
	}
}

type errWrap struct{ inner error }

func (e errWrap) Error() string { return "wrap: " + e.inner.Error() }
func (e errWrap) Unwrap() error { return e.inner }

// flakyConn fails with a retryable DownError for the first failN calls.
type flakyConn struct {
	failN int
	calls int
}

func (c *flakyConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	c.calls++
	if c.calls <= c.failN {
		return &DownError{Node: "io1"}
	}
	return nil
}

// retrySim runs fn as the lone process of a fresh kernel and returns the
// virtual time it took: the retry loop's backoffs are kernel sleeps.
func retrySim(t *testing.T, fn func(ctx *Ctx)) time.Duration {
	t.Helper()
	k := sim.NewKernel(1)
	var took sim.Time
	k.Go("caller", func(p *sim.Proc) {
		fn(&Ctx{P: p})
		took = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return time.Duration(took)
}

func TestWithRetryRidesOutOutage(t *testing.T) {
	inner := &flakyConn{failN: 3}
	var retries int
	conn := WithRetry(inner, func() { retries++ })
	took := retrySim(t, func(ctx *Ctx) {
		if err := conn.Call(ctx, 1, nil, nil); err != nil {
			t.Errorf("call through transient outage: %v", err)
		}
	})
	if inner.calls != 4 {
		t.Fatalf("inner called %d times, want 4", inner.calls)
	}
	if retries != 3 {
		t.Fatalf("onRetry fired %d times, want 3", retries)
	}
	// Three backoffs: RetryBase, then doubled twice.
	if want := 7 * RetryBase; took != want {
		t.Fatalf("outage ridden out in %v of virtual time, want %v", took, want)
	}
}

// TestRetryBudgetInVirtualTime pins the retry budget docs/FAULTS.md
// documents: a call to a node that never comes back fails after exactly
// RetryAttempts attempts, each burning DownCallTimeout, with the backoffs
// between them (100, 200, 400, 800, 1600 ms, then 14 × 2 s) — 35.1 s of
// virtual time in all.
func TestRetryBudgetInVirtualTime(t *testing.T) {
	k, tr, sc := serveSim(t, "echo", echoHandler, 4)
	tr.SetNodeDown("server", true)
	attempts, retries := 0, 0
	conn := WithRetry(connFunc(func(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
		attempts++
		return sc.Call(ctx, proc, args, rep)
	}), func() { retries++ })
	var took time.Duration
	k.Go("caller", func(p *sim.Proc) {
		err := conn.Call(&Ctx{P: p}, procEcho, &echoArgs{N: 1}, nil)
		var de *DownError
		if !errors.As(err, &de) || de.Node != "server" {
			t.Errorf("exhausted retry budget returned %v, want DownError{server}", err)
		}
		took = time.Duration(p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 20 || retries != 19 {
		t.Fatalf("%d attempts and %d retries, want 20 and 19", attempts, retries)
	}
	if want := 35100 * time.Millisecond; took != want {
		t.Fatalf("gave up after %v of virtual time, want %v", took, want)
	}
}

func TestWithRetryDoesNotRetryProtocolErrors(t *testing.T) {
	calls := 0
	failing := connFunc(func(*Ctx, uint32, xdr.Marshaler, xdr.Unmarshaler) error {
		calls++
		return StatusSystemErr
	})
	conn := WithRetry(failing, nil)
	took := retrySim(t, func(ctx *Ctx) {
		if err := conn.Call(ctx, 1, nil, nil); !errors.Is(err, StatusSystemErr) {
			t.Errorf("got %v, want StatusSystemErr through unchanged", err)
		}
	})
	if calls != 1 || took != 0 {
		t.Fatalf("non-retryable error: %d calls over %v, want 1 call and no backoff", calls, took)
	}
}

type connFunc func(*Ctx, uint32, xdr.Marshaler, xdr.Unmarshaler) error

func (f connFunc) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	return f(ctx, proc, args, rep)
}
