package xdr

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xdeadbeef)
	if e.Len() != 4 {
		t.Fatalf("encoded length %d, want 4", e.Len())
	}
	d := NewDecoder(e.Bytes())
	v, err := d.Uint32()
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("got %x, %v", v, err)
	}
}

func TestBigEndianWire(t *testing.T) {
	e := NewEncoder()
	e.Uint32(1)
	if !bytes.Equal(e.Bytes(), []byte{0, 0, 0, 1}) {
		t.Fatalf("not big-endian: %v", e.Bytes())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder()
		e.Opaque(make([]byte, n))
		want := SizeOpaque(n)
		if e.Len() != want {
			t.Errorf("opaque(%d): encoded %d bytes, want %d", n, e.Len(), want)
		}
		if e.Len()%4 != 0 {
			t.Errorf("opaque(%d): not 4-aligned", n)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "abcd", "hello world", "日本語"} {
		e := NewEncoder()
		e.String(s)
		d := NewDecoder(e.Bytes())
		got, err := d.String()
		if err != nil || got != s {
			t.Fatalf("round-trip %q: got %q, %v", s, got, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%q: %d trailing bytes", s, d.Remaining())
		}
	}
}

func TestBoolRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	a, _ := d.Bool()
	b, err := d.Bool()
	if err != nil || !a || b {
		t.Fatalf("bool round-trip: %v %v %v", a, b, err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 1.5, -3.25e300, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	e := NewEncoder()
	for _, v := range in {
		e.Float64(v)
	}
	if e.Len() != 8*len(in) {
		t.Fatalf("encoded length %d, want %d", e.Len(), 8*len(in))
	}
	d := NewDecoder(e.Bytes())
	for _, want := range in {
		got, err := d.Float64()
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("float64 round-trip: got %v (%v), want %v", got, err, want)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if _, err := d.Uint32(); err != ErrShortBuffer {
		t.Fatalf("uint32 on short buffer: %v", err)
	}
	if _, err := d.Uint64(); err != ErrShortBuffer {
		t.Fatalf("uint64 on short buffer: %v", err)
	}
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Fatalf("opaque on short buffer: %v", err)
	}
}

func TestHostileLengthWord(t *testing.T) {
	e := NewEncoder()
	e.Uint32(0xffffffff) // absurd opaque length
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err != ErrTooLong {
		t.Fatalf("hostile length: %v, want ErrTooLong", err)
	}
}

func TestTruncatedOpaqueBody(t *testing.T) {
	e := NewEncoder()
	e.Uint32(100) // claims 100 bytes, provides none
	d := NewDecoder(e.Bytes())
	if _, err := d.Opaque(); err != ErrShortBuffer {
		t.Fatalf("truncated opaque: %v", err)
	}
}

// testMsg passes one field of every Filter primitive but Payload.
type testMsg struct {
	A uint32
	B int64
	C string
	D []byte
	E bool
	F uint64
	G []uint32
}

func (m *testMsg) XDR(f Filter) {
	f.U32(&m.A)
	f.I64(&m.B)
	f.Text(&m.C)
	f.Blob(&m.D)
	f.Flag(&m.E)
	f.U64(&m.F)
	Slice(f, &m.G, 64, SizeUint32, Filter.U32)
}

func (m *testMsg) MarshalXDR(e *Encoder)         { m.XDR(e) }
func (m *testMsg) UnmarshalXDR(d *Decoder) error { return d.Decode(m) }

// Property: any message round-trips exactly through Marshal/Unmarshal, and
// Size is the length of its encoding.
func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(a uint32, b int64, c string, d []byte, e bool, fl uint64, g []uint32) bool {
		in := &testMsg{A: a, B: b, C: c, D: d, E: e, F: fl, G: g[:min(len(g), 64)]}
		var out testMsg
		enc := Marshal(in)
		if err := Unmarshal(enc, &out); err != nil || Size(in) != int64(len(enc)) {
			return false
		}
		return out.A == in.A && out.B == in.B && out.C == in.C &&
			bytes.Equal(out.D, in.D) && out.E == in.E && out.F == in.F &&
			slices.Equal(out.G, in.G)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	e := NewEncoder()
	(&testMsg{}).XDR(e)
	e.Uint32(99) // junk
	var out testMsg
	if err := Unmarshal(e.Bytes(), &out); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

func TestFixedOpaqueRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.FixedOpaque([]byte{1, 2, 3, 4, 5})
	if e.Len() != 8 {
		t.Fatalf("fixed opaque of 5 encodes to %d, want 8", e.Len())
	}
	d := NewDecoder(e.Bytes())
	got, err := d.FixedOpaque(5)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Uint64(7)
	e.Reset()
	if e.Len() != 0 {
		t.Fatal("reset did not clear buffer")
	}
}
