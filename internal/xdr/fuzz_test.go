package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecodePrimitives drives the Decoder's primitive readers with
// arbitrary bytes, interpreting the input itself as the op sequence.
// Whatever the input, decoding must either succeed or return an error —
// never panic — and must never read past the buffer.
func FuzzDecodePrimitives(f *testing.F) {
	// Seeds from the unit-test corpus: valid encodings, short buffers, and
	// hostile length words.
	e := NewEncoder()
	e.Uint32(0xdeadbeef)
	e.Uint64(1 << 40)
	e.String("hello world")
	e.Opaque([]byte{1, 2, 3, 4, 5})
	e.Bool(true)
	e.Float64(3.14)
	f.Add(e.Bytes())
	f.Add([]byte{1, 2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd opaque length
	f.Add([]byte{0, 0, 0, 100})           // truncated opaque body
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		for d.Remaining() > 0 {
			op, err := d.Uint32()
			if err != nil {
				return
			}
			switch op % 7 {
			case 0:
				_, err = d.Uint32()
			case 1:
				_, err = d.Uint64()
			case 2:
				_, err = d.Bool()
			case 3:
				_, err = d.String()
			case 4:
				_, err = d.Opaque()
			case 5:
				_, err = d.FixedOpaque(int(op % 64))
			case 6:
				_, err = d.Float64()
			}
			if err != nil {
				return
			}
			if d.Remaining() < 0 {
				t.Fatalf("decoder ran past the buffer: remaining %d", d.Remaining())
			}
		}
	})
}

// FuzzDecodeMessage decodes arbitrary bytes into a composite message; any
// input that decodes must re-encode and decode again to the same value
// (canonical round-trip).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []*testMsg{
		{},
		{A: 1, B: -5, C: "abc", D: []byte{9, 8, 7}, E: true, F: 2, G: []uint32{5}},
		{A: 0xffffffff, B: 1 << 62, C: "日本語", D: make([]byte, 33), F: 1 << 63, G: make([]uint32, 64)},
	} {
		f.Add(Marshal(m))
	}
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m testMsg
		if err := Unmarshal(data, &m); err != nil {
			return // malformed input must error, not panic
		}
		re := Marshal(&m)
		var m2 testMsg
		if err := Unmarshal(re, &m2); err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if !bytes.Equal(re, Marshal(&m2)) {
			t.Fatal("round-trip is not canonical")
		}
	})
}
