// Injected-failure surface of the rpc layer (internal/faults): calls to a
// crashed node return a retryable *DownError on both transports — after an
// RPC timeout of virtual time on the simulated fabric, immediately over TCP
// — whether the call found the node down or its handler met the crash
// (StatusDown), and WithRetry gives protocol clients a deterministic backoff
// loop that rides out an outage until the node restarts.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// DownCallTimeout is the virtual time a simulated call burns before a
// crashed node's unreachability surfaces as an error — the RPC timeout a
// real client pays before failing over.  It is deliberately aggressive
// (fast failure detection) rather than the Linux NFS default of tens of
// seconds, so degraded-mode throughput remains measurable.
const DownCallTimeout = 200 * time.Millisecond

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
