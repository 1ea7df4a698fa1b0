package xdr

import (
	"errors"
	"testing"
)

// directionSpy records the direction each filter it is passed reports.
type directionSpy struct{ seen []bool }

func (s *directionSpy) XDR(f Filter) { s.seen = append(s.seen, f.Decoding()) }

// TestDecoding: of the three directions only the Decoder fills values.
func TestDecoding(t *testing.T) {
	var s directionSpy
	Encode(&s)
	Size(&s)
	if err := Decode(nil, &s); err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, false, true}; len(s.seen) != 3 || s.seen[0] != want[0] || s.seen[1] != want[1] || s.seen[2] != want[2] {
		t.Fatalf("Encoder, sizer, Decoder report Decoding %v, want %v", s.seen, want)
	}
}

// TestDecoderErrorIsSticky: the first error ends the decode — later fields
// are left alone — and Decode reports it.
func TestDecoderErrorIsSticky(t *testing.T) {
	enc := Encode(&testMsg{A: 1, B: 2, C: "three", D: []byte{4}, E: true, F: 6})
	for cut := 0; cut < len(enc); cut++ {
		var m testMsg
		if err := Decode(enc[:cut], &m); !errors.Is(err, ErrShortBuffer) {
			t.Fatalf("decode of %d of %d bytes: %v, want %v", cut, len(enc), err, ErrShortBuffer)
		}
		if m.F != 0 && cut < len(enc)-SizeUint32 { // F ends where G's count starts
			t.Fatalf("decode of %d of %d bytes filled a field past the error", cut, len(enc))
		}
	}
	d := NewDecoder(nil)
	d.Fail(ErrTooLong)
	d.Fail(ErrShortBuffer)
	var v uint32 = 7
	d.U32(&v)
	if err := d.Decode(&directionSpy{}); err != ErrTooLong || v != 7 {
		t.Fatalf("after a failure: error %v (want the first, %v), field %d (want untouched)", err, ErrTooLong, v)
	}
}

// countMsg is a counted array of two-word elements with a bound of 8.
type countMsg struct{ pairs []uint64 }

func (m *countMsg) XDR(f Filter) { Slice(f, &m.pairs, 8, SizeUint64, Filter.U64) }

// TestCountRule: a decoded count above the bound, or one whose elements
// cannot fit in the rest of the input, is rejected; every valid encoding
// decodes, the empty one included.
func TestCountRule(t *testing.T) {
	for n := 0; n <= 8; n++ {
		in := &countMsg{pairs: make([]uint64, n)}
		var out countMsg
		if err := Decode(Encode(in), &out); err != nil || len(out.pairs) != n {
			t.Fatalf("%d elements: decoded %d, error %v", n, len(out.pairs), err)
		}
	}
	over := Encode(&countMsg{pairs: make([]uint64, 9)})
	if err := Decode(over, &countMsg{}); !errors.Is(err, ErrTooLong) {
		t.Fatalf("count above the bound: %v, want %v", err, ErrTooLong)
	}
	short := Encode(&countMsg{pairs: make([]uint64, 8)})
	if err := Decode(short[:len(short)-1], &countMsg{}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("count past the input: %v, want %v", err, ErrShortBuffer)
	}
}

// unionMsg is a union whose arm 1 carries a word and arm 0 nothing.
type unionMsg struct {
	arm uint32
	v   uint32
}

func (m *unionMsg) XDR(f Filter) {
	switch arm := f.Union(m.arm); arm {
	case 0:
	case 1:
		f.U32(&m.v)
	default:
		f.Fail(errors.New("bad arm"))
	}
}

func TestUnion(t *testing.T) {
	for _, in := range []unionMsg{{0, 0}, {1, 9}} {
		enc := Encode(&in)
		if Size(&in) != int64(len(enc)) {
			t.Fatalf("%+v: Size %d, encoding %d bytes", in, Size(&in), len(enc))
		}
		var out unionMsg
		if err := Decode(enc, &out); err != nil || out.v != in.v {
			t.Fatalf("%+v decodes to %+v (%v)", in, out, err)
		}
	}
	if err := Decode([]byte{0, 0, 0, 2}, &unionMsg{}); err == nil || err.Error() != "bad arm" {
		t.Fatalf("unknown arm: %v", err)
	}
}

// TestFailPanicsWhenEncodingOrSizing: a value the stream cannot carry is
// the caller's bug when encoding or sizing, so Fail panics with its error
// there; only the Decoder keeps it as the decode's error (TestUnion).
func TestFailPanicsWhenEncodingOrSizing(t *testing.T) {
	for name, run := range map[string]func(Codec){
		"Encode": func(c Codec) { Encode(c) },
		"Size":   func(c Codec) { Size(c) },
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != "bad arm" {
					t.Errorf("%s of an unknown arm panicked with %v, want the error Fail was given", name, err)
				}
			}()
			run(&unionMsg{arm: 2})
		}()
	}
}
