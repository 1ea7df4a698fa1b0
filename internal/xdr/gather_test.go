package xdr

import (
	"bytes"
	"testing"
)

// gatherLens are the opaque lengths every wire-format test sweeps: empty,
// unaligned tiny ones, both sides of GatherMin, and a bulk transfer with and
// without padding after the by-reference segment.
var gatherLens = []int{0, 1, 3, GatherMin - 1, GatherMin, 2 << 20, 2<<20 + 1}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + n)
	}
	return b
}

// encodeBoth runs fn on a flat and on a gathering encoder and returns the
// flat bytes and the gathering encoder.
func encodeBoth(fn func(e *Encoder)) ([]byte, *Encoder) {
	flat := NewEncoder()
	fn(flat)
	g := NewEncoder()
	g.EnableGather()
	fn(g)
	return flat.Bytes(), g
}

// TestGatherMatchesFlat: a gathering encoder produces, segment by segment,
// exactly the bytes a flat encoder appends — scalars, length words and
// padding in the head, bulk opaques by reference.
func TestGatherMatchesFlat(t *testing.T) {
	for _, n := range gatherLens {
		data := pattern(n)
		flat, g := encodeBoth(func(e *Encoder) {
			e.Uint64(0x0102030405060708)
			e.OpaqueRef(data)
			e.Bool(true)
			e.OpaqueRef(data) // two opaques back to back, only padding between
			e.String("tail")
		})
		got := bytes.Join(g.Buffers(nil), nil)
		if !bytes.Equal(got, flat) {
			t.Errorf("len %d: gathered encoding differs from flat (%d vs %d bytes)", n, len(got), len(flat))
		}
		if g.Len() != len(flat) {
			t.Errorf("len %d: Len() = %d, want %d", n, g.Len(), len(flat))
		}
		wantRefs := 0
		if n >= GatherMin {
			wantRefs = 2
		}
		if g.Refs() != wantRefs {
			t.Errorf("len %d: %d by-reference opaques, want %d", n, g.Refs(), wantRefs)
		}
		if wantRefs > 0 && len(g.Bytes()) >= n {
			t.Errorf("len %d: head buffer holds %d bytes — the payload was copied", n, len(g.Bytes()))
		}
	}
}

// TestGatherReferencesNotCopies: the by-reference segment aliases the
// caller's slice, and Reset drops it.
func TestGatherReferencesNotCopies(t *testing.T) {
	data := pattern(GatherMin)
	g := NewEncoder()
	g.EnableGather()
	g.OpaqueRef(data)
	bufs := g.Buffers(nil)
	if len(bufs) != 2 || &bufs[1][0] != &data[0] {
		t.Fatalf("segments %d; the opaque was not passed by reference", len(bufs))
	}
	g.Reset()
	if g.Refs() != 0 || g.Len() != 0 || len(g.Buffers(nil)) != 0 {
		t.Fatalf("Reset left %d refs, %d bytes", g.Refs(), g.Len())
	}
	// Gather mode survives Reset (pooled encoders are reset, not rebuilt).
	g.OpaqueRef(data)
	if g.Refs() != 1 {
		t.Fatal("Reset switched gather mode off")
	}
}

// TestFlatEncoderOpaqueRefCopies: without EnableGather, OpaqueRef is Opaque —
// Bytes() is the whole encoding, as xdr.Marshal and every non-transport
// caller expects.
func TestFlatEncoderOpaqueRefCopies(t *testing.T) {
	data := pattern(2 * GatherMin)
	a, b := NewEncoder(), NewEncoder()
	a.OpaqueRef(data)
	b.Opaque(data)
	if a.Refs() != 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("flat encoder took an opaque by reference")
	}
}
