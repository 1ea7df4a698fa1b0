package xdr

import (
	"fmt"
	"sync"
)

// Filter is one direction of an XDR stream, as in the ONC RPC library's
// XDR handles (RFC 4506): *Encoder appends a value's encoding, *Decoder
// fills a value from the wire, and the sizer behind Size only counts bytes.
// A message declares its wire shape once, as a Codec method that passes each
// field to the filter in wire order; the filter's direction decides what
// happens to it.
//
// Fields go by pointer so one call serves every direction.  Counts and union
// discriminants go by value and come back as the value the caller must use —
// its own on the way out, the decoded one on the way in — so a method never
// takes the address of a local, which would move it to the heap.
//
// A Decoder keeps the first error (Decoder.Decode returns it) and turns every
// later call into a no-op, so a Codec method runs straight through without
// checking after each field.
type Filter interface {
	// Decoding reports whether the filter fills values from the wire.
	Decoding() bool

	U32(v *uint32)
	U64(v *uint64)
	I64(v *int64)
	Flag(v *bool)   // an XDR bool
	Text(v *string) // an XDR string
	Blob(v *[]byte) // a variable-length opaque
	// Payload passes bulk data through its own methods, so sizing never
	// materializes a synthetic payload.
	Payload(p Bulk)

	// Count passes the element count of a counted array: n on the way out,
	// the decoded count on the way in.  A decoded count above max, or one
	// whose elements, at elem bytes each at least, would not fit in the
	// rest of the input, is an error and returns 0, so a decoder never
	// allocates for elements that are not there.
	Count(n, max, elem int) int
	// Union passes a discriminated union's discriminant: arm on the way
	// out, the decoded one on the way in.
	Union(arm uint32) uint32
	// Fail reports a value the stream cannot carry, such as an unknown
	// union arm met while decoding.  A Decoder keeps err as its error; the
	// other directions panic, since a value in memory that has no encoding
	// is a bug.
	Fail(err error)
}

// Codec is implemented by every message: XDR passes its fields to f in
// wire order.
type Codec interface {
	XDR(f Filter)
}

// Bulk is bulk data (payload.Payload) that a Filter hands to its own
// methods: encoding may send it by reference, decoding may borrow it, and
// sizing reads its length from WireSize.
type Bulk interface {
	Marshaler
	Unmarshaler
	WireSize() int64
}

// Slice passes a counted array: its count through Count, then each element
// through each.  Decoding replaces *s with a fresh slice of the decoded
// length.
func Slice[T any](f Filter, s *[]T, max, elem int, each func(Filter, *T)) {
	n := f.Count(len(*s), max, elem)
	if f.Decoding() {
		*s = make([]T, n)
	}
	for i := range *s {
		each(f, &(*s)[i])
	}
}

// Encode returns c's encoding in a fresh byte slice.
func Encode(c Codec) []byte {
	e := NewEncoder()
	c.XDR(e)
	return e.Bytes()
}

// Decode decodes b into c, requiring full consumption of the buffer.
func Decode(b []byte, c Codec) error {
	d := NewDecoder(b)
	return d.whole(c, d.Decode(c))
}

// sizerPool recycles the sizers behind Size: a sizer passed through the
// Filter interface escapes, so a fresh one per call would allocate.
var sizerPool = sync.Pool{New: func() any { return new(sizer) }}

// Size returns the length of c's encoding without encoding it.
func Size(c Codec) int64 {
	s := sizerPool.Get().(*sizer)
	s.n = 0
	c.XDR(s)
	n := s.n
	sizerPool.Put(s)
	return n
}

// ---- encoding ----

// The Filter methods of *Encoder append each value as the value-style
// methods do; Count and Union append the count or arm they are given.

func (e *Encoder) Decoding() bool { return false }
func (e *Encoder) U32(v *uint32)  { e.Uint32(*v) }
func (e *Encoder) U64(v *uint64)  { e.Uint64(*v) }
func (e *Encoder) I64(v *int64)   { e.Int64(*v) }
func (e *Encoder) Flag(v *bool)   { e.Bool(*v) }
func (e *Encoder) Text(v *string) { e.String(*v) }
func (e *Encoder) Blob(v *[]byte) { e.Opaque(*v) }
func (e *Encoder) Payload(p Bulk) { p.MarshalXDR(e) }
func (e *Encoder) Fail(err error) { panic(err) }
func (e *Encoder) Union(arm uint32) uint32 {
	e.Uint32(arm)
	return arm
}

func (e *Encoder) Count(n, _, _ int) int {
	e.Uint32(uint32(n))
	return n
}

// ---- sizing ----

// sizer is the Filter that counts the bytes an Encoder would append.
type sizer struct{ n int64 }

func (s *sizer) Decoding() bool { return false }
func (s *sizer) U32(*uint32)    { s.n += SizeUint32 }
func (s *sizer) U64(*uint64)    { s.n += SizeUint64 }
func (s *sizer) I64(*int64)     { s.n += SizeUint64 }
func (s *sizer) Flag(*bool)     { s.n += SizeBool }
func (s *sizer) Text(v *string) { s.n += int64(SizeString(*v)) }
func (s *sizer) Blob(v *[]byte) { s.n += int64(SizeOpaque(len(*v))) }
func (s *sizer) Payload(p Bulk) { s.n += p.WireSize() }
func (s *sizer) Fail(err error) { panic(err) }
func (s *sizer) Union(arm uint32) uint32 {
	s.n += SizeUint32
	return arm
}

func (s *sizer) Count(n, _, _ int) int {
	s.n += SizeUint32
	return n
}

// ---- decoding ----

// The Filter methods of *Decoder fill each value from the input until the
// first error, which they keep (Decode returns it); after it they do
// nothing.

// Decode runs c's Codec method over the decoder and returns the first error
// it met (and any error the decoder already held).
func (d *Decoder) Decode(c Codec) error {
	c.XDR(d)
	return d.err
}

func (d *Decoder) Decoding() bool { return true }

func (d *Decoder) U32(v *uint32) {
	if d.err == nil {
		*v, d.err = d.Uint32()
	}
}

func (d *Decoder) U64(v *uint64) {
	if d.err == nil {
		*v, d.err = d.Uint64()
	}
}

func (d *Decoder) I64(v *int64) {
	if d.err == nil {
		*v, d.err = d.Int64()
	}
}

func (d *Decoder) Flag(v *bool) {
	if d.err == nil {
		*v, d.err = d.Bool()
	}
}

func (d *Decoder) Text(v *string) {
	if d.err == nil {
		*v, d.err = d.String()
	}
}

func (d *Decoder) Blob(v *[]byte) {
	if d.err == nil {
		*v, d.err = d.Opaque()
	}
}

func (d *Decoder) Payload(p Bulk) {
	if d.err == nil {
		d.err = p.UnmarshalXDR(d)
	}
}

func (d *Decoder) Union(uint32) uint32 {
	var arm uint32
	d.U32(&arm)
	return arm
}

func (d *Decoder) Count(_, max, elem int) int {
	var n uint32
	d.U32(&n)
	switch {
	case d.err != nil:
		return 0
	case int64(n) > int64(max):
		d.err = ErrTooLong
		return 0
	case int64(n)*int64(elem) > int64(d.Remaining()):
		d.err = ErrShortBuffer
		return 0
	}
	return int(n)
}

func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// whole is the full-consumption check Unmarshal and Decode share: err, or
// an error naming v if bytes are left over.
func (d *Decoder) whole(v any, err error) error {
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("xdr: %d trailing bytes after decode of %T", d.Remaining(), v)
	}
	return err
}
