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

// RetryPolicy bounds a retry loop: Max attempts total, exponential backoff
// from Base capped at Cap.  Backoff sleeps are virtual time under the
// simulation kernel and wall clock otherwise, so retries stay deterministic
// in simulated runs.
type RetryPolicy struct {
	Max  int
	Base time.Duration
	Cap  time.Duration
}

// DefaultRetryPolicy rides out outages of roughly half a virtual minute:
// 20 attempts, 100 ms initial backoff doubling to a 2 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Max: 20, Base: 100 * time.Millisecond, Cap: 2 * time.Second}
}

// WithDefaults fills zero-valued fields from DefaultRetryPolicy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.Max <= 0 {
		p.Max = def.Max
	}
	if p.Base <= 0 {
		p.Base = def.Base
	}
	if p.Cap <= 0 {
		p.Cap = def.Cap
	}
	return p
}

// Do runs op under the policy, retrying Retryable failures with bounded
// exponential backoff (zero-valued fields take defaults).  Backoff sleeps
// are virtual time under the simulation kernel and wall clock otherwise.
// onRetry, when non-nil, is invoked before each retry — callers hook their
// retry counters here.  This is the single retry loop behind both WithRetry
// conns and the I/O engine's retry policy.
//
// Integrity failures (RetryableIntegrity) are retried too, but under their
// own tighter bound of IntegrityRetries regardless of Max: one retry heals
// a misdirected read, while persistent rot escalates quickly to whatever
// fallback ladder wraps this loop.
func (p RetryPolicy) Do(ctx *Ctx, onRetry func(), op func() error) error {
	p = p.WithDefaults()
	backoff := p.Base
	integrity := 0
	var err error
	for attempt := 0; attempt < p.Max; attempt++ {
		if attempt > 0 {
			if onRetry != nil {
				onRetry()
			}
			ctx.Pause(backoff)
			backoff *= 2
			if backoff > p.Cap {
				backoff = p.Cap
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

// WithRetry wraps conn so Retryable failures are retried under pol
// (zero-valued fields take defaults).  onRetry, when non-nil, is invoked
// before each retry — protocol layers hook their retry counters here.
func WithRetry(conn Conn, pol RetryPolicy, onRetry func()) Conn {
	return &retryConn{inner: conn, pol: pol.WithDefaults(), onRetry: onRetry}
}

type retryConn struct {
	inner   Conn
	pol     RetryPolicy
	onRetry func()
}

// Call implements Conn with bounded exponential-backoff retries.
func (r *retryConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	return r.pol.Do(ctx, r.onRetry, func() error {
		return r.inner.Call(ctx, proc, args, rep)
	})
}
