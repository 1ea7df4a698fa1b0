// Package xdr implements the subset of XDR (RFC 4506) external data
// representation used by the NFSv4.1/pNFS and PVFS2 wire protocols in this
// repository: big-endian 4-byte aligned primitives, variable-length opaques
// and strings, and counted arrays.
//
// Every protocol message implements Marshaler/Unmarshaler, so the same
// byte-exact encoding flows over both the simulated fabric (where only the
// encoded length matters for timing) and real TCP (cmd/pnfs-demo).
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Marshaler is implemented by types that can append their XDR encoding.
type Marshaler interface {
	MarshalXDR(e *Encoder)
}

// Unmarshaler is implemented by types that can decode themselves from XDR.
type Unmarshaler interface {
	UnmarshalXDR(d *Decoder) error
}

// MaxOpaque bounds variable-length fields to guard against corrupt or
// hostile length words (16 MiB is far above any message this repo sends).
const MaxOpaque = 16 << 20

var (
	// ErrShortBuffer is returned when a decode runs past the input.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrTooLong is returned when a length word exceeds MaxOpaque.
	ErrTooLong = errors.New("xdr: variable-length field exceeds limit")
)

// GatherMin is the smallest opaque a gathering encoder (EnableGather) passes
// by reference instead of copying.  Below it the memcpy is cheaper than the
// two extra I/O vectors a by-reference segment costs the socket write.
const GatherMin = 4 << 10

// Encoder appends XDR-encoded data to an internal buffer.
//
// A gathering encoder (EnableGather) keeps that buffer small: OpaqueRef
// records opaques of GatherMin bytes or more by reference, and Buffers
// interleaves them with the buffer's scalars, length words and padding in
// wire order — byte for byte the flat encoding, minus the copy.
type Encoder struct {
	buf    []byte
	gather bool
	refs   []gatherRef
}

// gatherRef is one by-reference opaque: b belongs on the wire between
// buf[:at] and buf[at:].
type gatherRef struct {
	at int
	b  []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderBuf returns an encoder that appends into b's storage (emptied
// first).  Callers feeding pooled buffers avoid a fresh allocation per
// message; Bytes may still reallocate past cap(b).
func NewEncoderBuf(b []byte) *Encoder { return &Encoder{buf: b[:0]} }

// EnableGather switches the encoder into gather mode for good (Reset keeps
// it).  Every slice handed to OpaqueRef from then on must stay alive and
// unmodified until the caller has consumed Buffers — for the TCP transport,
// until the socket write returns.
func (e *Encoder) EnableGather() { e.gather = true }

// Bytes returns the encoded buffer (not a copy).  On a gathering encoder
// that took opaques by reference this is the head buffer only; Buffers has
// the whole encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far, by-reference opaques
// included.
func (e *Encoder) Len() int {
	n := len(e.buf)
	for _, r := range e.refs {
		n += len(r.b)
	}
	return n
}

// Reset discards the contents, retaining the buffer's capacity and dropping
// every by-reference slice.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.refs)
	e.refs = e.refs[:0]
}

// Refs reports how many opaques the encoder holds by reference.
func (e *Encoder) Refs() int { return len(e.refs) }

// Buffers appends the encoding to dst as a wire-ordered sequence of slices
// — head bytes and by-reference opaques interleaved — and returns it.  The
// slices alias the encoder and its referenced opaques; nothing is copied.
func (e *Encoder) Buffers(dst [][]byte) [][]byte {
	from := 0
	for _, r := range e.refs {
		if r.at > from {
			dst = append(dst, e.buf[from:r.at])
		}
		dst = append(dst, r.b)
		from = r.at
	}
	if from < len(e.buf) {
		dst = append(dst, e.buf[from:])
	}
	return dst
}

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned (hyper) integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a 64-bit signed (hyper) integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// FixedOpaque encodes bytes with no length word, padded to 4-byte alignment.
func (e *Encoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	e.pad(len(b))
}

// pad appends the alignment padding that follows an n-byte opaque body.
func (e *Encoder) pad(n int) {
	for pad := (4 - n%4) % 4; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// Zeros appends n zero bytes (no alignment padding of its own).  Synthetic
// bulk payloads encode through this without materializing a source buffer.
func (e *Encoder) Zeros(n int) {
	if n <= 0 {
		return
	}
	if need := len(e.buf) + n; need > cap(e.buf) {
		grown := make([]byte, len(e.buf), need)
		copy(grown, e.buf)
		e.buf = grown
	}
	zeroFrom := len(e.buf)
	e.buf = e.buf[:zeroFrom+n]
	clear(e.buf[zeroFrom:])
}

// Opaque encodes a variable-length opaque: length word + padded bytes.
func (e *Encoder) Opaque(b []byte) {
	if len(b) > MaxOpaque {
		panic(fmt.Sprintf("xdr: opaque of %d bytes exceeds limit", len(b)))
	}
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// OpaqueRef encodes a variable-length opaque the caller keeps alive (see
// EnableGather).  A gathering encoder takes b by reference when it is at
// least GatherMin bytes; otherwise, and on a flat encoder, OpaqueRef is
// Opaque.
func (e *Encoder) OpaqueRef(b []byte) {
	if !e.gather || len(b) < GatherMin || len(b) > MaxOpaque {
		e.Opaque(b) // which rejects the oversized one
		return
	}
	e.Uint32(uint32(len(b)))
	e.refs = append(e.refs, gatherRef{at: len(e.buf), b: b})
	e.pad(len(b))
}

// String encodes an XDR string.
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Marshal appends m's encoding.
func (e *Encoder) Marshal(m Marshaler) { m.MarshalXDR(e) }

// Owner tracks the lifetime of a decode buffer that borrow-mode decodes
// alias.  A consumer that lets a borrowed reference escape the decode call
// must Retain the owner first and Release it once the reference is dead;
// the owner frees (or recycles) the underlying buffer when the last
// reference drops.
type Owner interface {
	Retain()
	Release()
}

// Decoder consumes XDR-encoded data from a buffer.
type Decoder struct {
	buf      []byte
	off      int
	owner    Owner
	borrowed int
}

// NewDecoder returns a decoder over b (which is not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// EnableBorrow switches the decoder into borrow mode: OpaqueRef (and any
// Unmarshaler built on it, like payload.Payload) returns slices aliasing
// the decode buffer instead of copies.  o owns that buffer; it must not be
// recycled until every retained borrow has been released.
//
// Lifetime rules:
//
//   - A borrowed slice is valid only while the decode buffer is alive.
//   - Decoding a message does not itself retain o; each borrow that
//     escapes the decode (is stored in the message rather than consumed
//     on the spot) must Retain o and Release it exactly once when done.
//   - After the last Release, reading a borrowed slice is a
//     use-after-free of pooled memory (tests catch this with the buffer
//     pool's poison-on-put hook).
func (d *Decoder) EnableBorrow(o Owner) { d.owner = o }

// BorrowOwner returns the owner installed by EnableBorrow, or nil when the
// decoder copies (the default).
func (d *Decoder) BorrowOwner() Owner { return d.owner }

// Borrowed reports how many opaques were decoded by reference (borrow mode
// only); transports feed it into the rpc_buf_borrowed_total counter.
func (d *Decoder) Borrowed() int { return d.borrowed }

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean; any nonzero word is true.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// FixedOpaque decodes n bytes plus alignment padding, returning a copy.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > MaxOpaque {
		return nil, ErrTooLong
	}
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += padded
	return out, nil
}

// Opaque decodes a variable-length opaque.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxOpaque {
		return nil, ErrTooLong
	}
	return d.FixedOpaque(int(n))
}

// OpaqueRef is a decoded variable-length opaque.  When Borrowed is set,
// Bytes aliases the decoder's buffer and is subject to the lifetime rules
// documented on EnableBorrow; otherwise Bytes is an ordinary copy.
type OpaqueRef struct {
	Bytes    []byte
	Borrowed bool
}

// OpaqueRef decodes a variable-length opaque without copying when borrow
// mode is enabled (EnableBorrow); outside borrow mode it behaves exactly
// like Opaque.  The returned slice's capacity is clipped to its length so
// appends by a careless consumer cannot scribble over the rest of the
// frame.
func (d *Decoder) OpaqueRef() (OpaqueRef, error) {
	if d.owner == nil {
		b, err := d.Opaque()
		return OpaqueRef{Bytes: b}, err
	}
	n32, err := d.Uint32()
	if err != nil {
		return OpaqueRef{}, err
	}
	if n32 > MaxOpaque {
		return OpaqueRef{}, ErrTooLong
	}
	n := int(n32)
	padded := n + (4-n%4)%4
	if d.Remaining() < padded {
		return OpaqueRef{}, ErrShortBuffer
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += padded
	d.borrowed++
	return OpaqueRef{Bytes: b, Borrowed: true}, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// Unmarshal decodes into u.
func (d *Decoder) Unmarshal(u Unmarshaler) error { return u.UnmarshalXDR(d) }

// SizeUint32 etc. give encoded sizes for message-size accounting without
// building a buffer.
const (
	SizeUint32 = 4
	SizeUint64 = 8
	SizeBool   = 4
)

// SizeOpaque returns the encoded size of a variable opaque of n bytes.
func SizeOpaque(n int) int { return 4 + n + (4-n%4)%4 }

// SizeString returns the encoded size of s.
func SizeString(s string) int { return SizeOpaque(len(s)) }

// Marshal encodes m into a fresh byte slice.
func Marshal(m Marshaler) []byte {
	e := NewEncoder()
	m.MarshalXDR(e)
	return e.Bytes()
}

// Unmarshal decodes b into u, requiring full consumption of the buffer.
func Unmarshal(b []byte, u Unmarshaler) error {
	d := NewDecoder(b)
	if err := u.UnmarshalXDR(d); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("xdr: %d trailing bytes after decode of %T", d.Remaining(), u)
	}
	return nil
}

// Float64 encodes an IEEE-754 double (used by workload trace files).
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Float64 decodes an IEEE-754 double.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}
