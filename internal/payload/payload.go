// Package payload represents bulk I/O data that can be either real bytes or
// a synthetic length.  Benchmarks move hundreds of simulated gigabytes, so
// the simulated transport passes typed messages by reference and charges the
// NIC for Payload.WireSize() without materializing buffers; integration
// tests and the TCP demo use real bytes end to end.
//
// Paper mapping: the paper's workloads write up to 500 MB per client
// (§6.2); synthetic payloads are what let the reproduction sweep those
// data sizes across five architectures and eight client counts in seconds.
package payload

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"dpnfs/internal/xdr"
)

// Payload is a byte string of length N.  If Bytes is nil the content is
// synthetic (all zeros, not materialized).  A payload may carry a release
// hook (RealPooled, borrow-mode decoding) that returns its backing buffer
// to a pool; the hook travels with every copy of the struct and fires at
// most once.
type Payload struct {
	N     int64
	Bytes []byte
	rel   *releaseCell
}

// releaseCell is the shared once-only release state behind a pooled
// payload.  All copies of the Payload struct point at the same cell, so
// whichever copy Releases first wins and the rest are no-ops.  What is
// released is one reference on owner.
type releaseCell struct {
	released atomic.Bool
	owner    xdr.Owner
}

// releaseFunc adapts a plain release hook to the single reference a
// releaseCell drops.
type releaseFunc func()

func (releaseFunc) Retain()    {}
func (f releaseFunc) Release() { f() }

// Real wraps actual bytes.
func Real(b []byte) Payload { return Payload{N: int64(len(b)), Bytes: b} }

// RealPooled wraps bytes whose backing buffer should be returned to its
// owner via release once the (single logical) consumer is done with the
// content.  Payloads that are never Released simply fall to the garbage
// collector — a missed pool reuse, not a leak or a correctness bug.
func RealPooled(b []byte, release func()) Payload {
	return RealOwned(b, releaseFunc(release))
}

// RealOwned wraps bytes kept alive by a reference the caller has already
// taken on o (a ref-counted frame or cache segment); Release drops that
// reference.
func RealOwned(b []byte, o xdr.Owner) Payload {
	return Payload{N: int64(len(b)), Bytes: b, rel: &releaseCell{owner: o}}
}

// Release returns the payload's backing buffer to its owner.  It is
// idempotent across all copies of the payload and a no-op for payloads
// without a release hook.  The caller must not touch Bytes afterwards.
func (p Payload) Release() {
	if p.rel != nil && p.rel.released.CompareAndSwap(false, true) {
		p.rel.owner.Release()
	}
}

// Synthetic describes n bytes of content without materializing them.
func Synthetic(n int64) Payload { return Payload{N: n} }

// Len returns the payload length in bytes.
func (p Payload) Len() int64 { return p.N }

// IsSynthetic reports whether the content is not materialized.
func (p Payload) IsSynthetic() bool { return p.Bytes == nil && p.N > 0 }

// WireSize returns the XDR-encoded size (length word + padded body).
func (p Payload) WireSize() int64 { return int64(xdr.SizeOpaque(int(p.N))) }

// MarshalXDR encodes the payload as a variable-length opaque.  Real bytes
// go through Encoder.OpaqueRef: a gathering encoder (the TCP transport's)
// sends bulk content by reference, so the payload must stay alive and
// unmodified until the frame is written — the caller of a WRITE holds it
// across the call, a server's READ buffer is held by ctx.Defer.  Synthetic
// payloads encode as zeros, appended straight into the frame buffer — only
// the TCP transport ever calls this for bulk data.
func (p Payload) MarshalXDR(e *xdr.Encoder) {
	if p.Bytes != nil {
		e.OpaqueRef(p.Bytes)
		return
	}
	if p.N > xdr.MaxOpaque {
		panic(fmt.Sprintf("payload: synthetic opaque of %d bytes exceeds limit", p.N))
	}
	e.Uint32(uint32(p.N))
	e.Zeros(int(p.N) + (4-int(p.N)%4)%4)
}

// UnmarshalXDR decodes a variable-length opaque as real bytes.  On a
// borrow-mode decoder (xdr.Decoder.EnableBorrow) the bytes alias the
// decode buffer: the buffer's owner is retained and released through the
// payload's Release hook, so the frame stays alive until the consumer is
// done with the content.
func (p *Payload) UnmarshalXDR(d *xdr.Decoder) error {
	ref, err := d.OpaqueRef()
	if err != nil {
		return err
	}
	if !ref.Borrowed {
		*p = Real(ref.Bytes)
		return nil
	}
	o := d.BorrowOwner()
	o.Retain()
	*p = RealOwned(ref.Bytes, o)
	return nil
}

// Slice returns the sub-payload [off, off+n), preserving synthetic-ness.
// The slice does not carry the parent's release hook: only the holder of
// the whole payload owns the backing buffer's lifetime.
func (p Payload) Slice(off, n int64) Payload {
	if off < 0 || n < 0 || off+n > p.N {
		panic("payload: slice out of range")
	}
	if p.Bytes == nil {
		return Synthetic(n)
	}
	return Real(p.Bytes[off : off+n])
}

// Equal reports whether two payloads have identical content, treating
// synthetic payloads as zeros.
func Equal(a, b Payload) bool {
	if a.N != b.N {
		return false
	}
	if a.Bytes == nil && b.Bytes == nil {
		return true
	}
	az, bz := a.Bytes, b.Bytes
	if az == nil {
		az = make([]byte, a.N)
	}
	if bz == nil {
		bz = make([]byte, b.N)
	}
	return bytes.Equal(az, bz)
}
