// Injected-failure surface of the rpc layer (internal/faults): node-down is
// one switch per logical node, owned by the transport (SetNodeDown), and
// both transports run every call through the one down path below — a call
// that found its node down or whose handler met the crash (StatusDown)
// returns a retryable *DownError once DownCallTimeout has passed on the
// mode's clock, counted alike on both.  WithRetry gives protocol clients a
// deterministic backoff loop that rides out an outage until the node
// restarts.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// DownCallTimeout is the time a call to a crashed node takes before the
// node's unreachability surfaces as an error — the RPC timeout a real
// client pays before failing over.  It is paid with Ctx.Sleep: virtual time
// on the simulated fabric, no wait on the wall clock.  It is deliberately
// aggressive (fast failure detection) rather than the Linux NFS default of
// tens of seconds, so degraded-mode throughput remains measurable.
const DownCallTimeout = 200 * time.Millisecond

// downSwitches is a transport's node-down state: one switch per logical
// node, made the first time the node is named.  A conn resolves its node's
// switch once, at Dial, so a call reads one atomic and takes no lock.  The
// zero value is ready to use.
type downSwitches struct {
	mu       sync.Mutex
	switches map[string]*atomic.Bool
}

// SetNodeDown marks (or clears) every service on the logical node as
// crashed: calls through conns dialed to it fail with a retryable
// *DownError.  A request already in a handler runs on: against a volatile
// store that keeps its image it completes, and against a durable store that
// crashed with the node it is answered as if it had found the node down
// (StatusDown).
func (d *downSwitches) SetNodeDown(node string, down bool) { d.of(node).Store(down) }

// of returns node's switch, making it on first use.
func (d *downSwitches) of(node string) *atomic.Bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.switches == nil {
		d.switches = make(map[string]*atomic.Bool)
	}
	s := d.switches[node]
	if s == nil {
		s = new(atomic.Bool)
		d.switches[node] = s
	}
	return s
}

// gate puts wire, a conn to a service on node, behind node's switch.
func (d *downSwitches) gate(node string, wire Conn, stats *connStats) *gatedConn {
	return &gatedConn{wire: wire, node: node, down: d.of(node), stats: stats}
}

// gatedConn is the Conn both transports' Dial returns: its wire (a fabric
// conn or a TCP pool, which carry a call without counting it, and return a
// handler that met a crash as StatusDown) behind the node's down switch,
// with the conn's client-side instruments.
type gatedConn struct {
	wire  Conn
	node  string
	down  *atomic.Bool
	stats *connStats
}

// Call implements Conn; it is the one down path of both transports.  Every
// call counts once, with its latency.  A call that finds the node down, or
// whose handler answered StatusDown, also counts one error and one fault
// and returns a *DownError once DownCallTimeout has passed since it started
// — on the fabric as if the request had gone unanswered, however long the
// handler ran first.
func (c *gatedConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	c.stats.callStart()
	start := ctx.Stamp()
	var err error = StatusDown
	if !c.down.Load() {
		err = c.wire.Call(ctx, proc, args, rep)
	}
	if err == StatusDown {
		ctx.Sleep(DownCallTimeout - ctx.Since(start))
		err = &DownError{Node: c.node}
		c.stats.fault()
	}
	c.stats.callEnd(ctx.Since(start), err)
	return err
}

// DownError is the retryable error surfaced for calls to a node taken down
// by fault injection, and for calls whose handler met the crash.
type DownError struct{ Node string }

func (e *DownError) Error() string {
	return fmt.Sprintf("rpc: node %s is down (injected fault)", e.Node)
}

// Retryable reports whether err is a transient transport failure that a
// client may retry: a call to a crashed node, which either found the node
// down or was in a handler when the node's store crashed under it.
// Protocol-level errors riding inside replies are never retryable.
func Retryable(err error) bool {
	var de *DownError
	return errors.As(err, &de)
}

// IntegrityRetries bounds re-reads of data that failed checksum
// verification.  A misdirected read is transient — the next read of the
// same block returns the right bytes — but media rot is not, so after this
// many same-source retries the error escalates to the caller's fallback
// ladder (read-repair from a replica, layout refetch, MDS proxy).
const IntegrityRetries = 2

// RetryableIntegrity reports whether err is a data-integrity failure
// (store.ErrCorrupt, fserr.Corrupt on the wire) that a client may re-read a
// bounded number of times before escalating.
func RetryableIntegrity(err error) bool {
	return errors.Is(err, store.ErrCorrupt)
}

// The retry budget rides out outages of roughly half a virtual minute:
// RetryAttempts attempts in all, with a backoff from RetryBase doubling to
// RetryCap between them.  Against a node that never comes back that is 19
// backoffs (31.1 s) plus 20 DownCallTimeouts (4 s) of virtual time.
const (
	RetryAttempts = 20
	RetryBase     = 100 * time.Millisecond
	RetryCap      = 2 * time.Second
)

// Retry runs op, retrying Retryable failures with bounded exponential
// backoff.  Backoff sleeps are virtual time under the simulation kernel and
// wall clock otherwise, so retries stay deterministic in simulated runs.
// onRetry, when non-nil, is invoked before each retry — callers hook their
// retry counters here.  This is the single retry loop behind both WithRetry
// conns and the I/O engine's retry policy.
//
// Integrity failures (RetryableIntegrity) are retried too, but under their
// own tighter bound of IntegrityRetries regardless of RetryAttempts: one
// retry heals a misdirected read, while persistent rot escalates quickly to
// whatever fallback ladder wraps this loop.
func Retry(ctx *Ctx, onRetry func(), op func() error) error {
	backoff := RetryBase
	integrity := 0
	var err error
	for attempt := 0; attempt < RetryAttempts; attempt++ {
		if attempt > 0 {
			if onRetry != nil {
				onRetry()
			}
			ctx.Pause(backoff)
			backoff *= 2
			if backoff > RetryCap {
				backoff = RetryCap
			}
		}
		err = op()
		if err == nil {
			return nil
		}
		if RetryableIntegrity(err) {
			if integrity++; integrity > IntegrityRetries {
				return err
			}
			continue
		}
		if !Retryable(err) {
			return err
		}
	}
	return err
}

// WithRetry wraps conn so every call runs under Retry.  onRetry, when
// non-nil, is invoked before each retry — protocol layers hook their retry
// counters here.
func WithRetry(conn Conn, onRetry func()) Conn {
	return &retryConn{inner: conn, onRetry: onRetry}
}

type retryConn struct {
	inner   Conn
	onRetry func()
}

// Call implements Conn with bounded exponential-backoff retries.
func (r *retryConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	return Retry(ctx, r.onRetry, func() error {
		return r.inner.Call(ctx, proc, args, rep)
	})
}
