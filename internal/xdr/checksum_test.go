package xdr

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestChecksumRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		frame := AppendChecksum(append([]byte(nil), body...))
		if len(frame) != len(body)+ChecksumSize {
			t.Fatalf("frame length %d, want %d", len(frame), len(body)+ChecksumSize)
		}
		got, err := VerifyChecksum(frame)
		if err != nil {
			t.Fatalf("verify clean frame: %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("body %q != %q", got, body)
		}
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	frame := AppendChecksum([]byte("the quick brown fox"))
	for i := range frame { // body and trailer alike
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x01
		if _, err := VerifyChecksum(mut); err != ErrChecksum {
			t.Fatalf("flipped byte %d undetected: %v", i, err)
		}
	}
	for cut := 0; cut < len(frame); cut++ { // truncation, down to empty
		if _, err := VerifyChecksum(frame[:cut]); err != ErrChecksum {
			t.Fatalf("truncation to %d undetected: %v", cut, err)
		}
	}
}

// ChecksumSalted folds the salt in without materializing a header slice;
// this pins its equivalence to the straightforward definition, a CRC over
// an 8-byte big-endian header followed by the body.
func TestChecksumSaltedEquivalence(t *testing.T) {
	for _, salt := range []uint64{0, 1, 0xdeadbeef, ^uint64(0), 7<<32 | 3} {
		for _, body := range [][]byte{nil, []byte("payload"), bytes.Repeat([]byte{0xAA}, 64<<10)} {
			var hdr [8]byte
			binary.BigEndian.PutUint64(hdr[:], salt)
			want := crc32.Update(crc32.Checksum(hdr[:], castagnoli), castagnoli, body)
			if got := ChecksumSalted(salt, body); got != want {
				t.Fatalf("ChecksumSalted(%#x) = %#x, want %#x", salt, got, want)
			}
		}
	}
}

// CopyChecksum is copy plus a running CRC over what it copied, whatever the
// lengths and however they fall against its granule; a salted sum started
// with ChecksumSalted(salt, nil) continues into ChecksumSalted(salt, body).
func TestCopyChecksum(t *testing.T) {
	src := make([]byte, 3*copyGranule+5)
	for i := range src {
		src[i] = byte(i*7 + i>>9)
	}
	for _, n := range []int{0, 1, copyGranule - 1, copyGranule, copyGranule + 1, len(src)} {
		for _, extra := range []int{0, 3} { // dst longer than src: only len(src) bytes move
			dst := bytes.Repeat([]byte{0xEE}, n+extra)
			sum := CopyChecksum(ChecksumSalted(9, nil), dst, src[:n])
			if !bytes.Equal(dst[:n], src[:n]) || !bytes.Equal(dst[n:], bytes.Repeat([]byte{0xEE}, extra)) {
				t.Fatalf("n=%d extra=%d: copy differs", n, extra)
			}
			if want := ChecksumSalted(9, src[:n]); sum != want {
				t.Fatalf("n=%d extra=%d: sum %#x, want %#x", n, extra, sum, want)
			}
		}
		// A destination shorter than the source bounds the copy, as copy does.
		short := make([]byte, n/2)
		if sum := CopyChecksum(0, short, src[:n]); sum != ChecksumUpdate(0, src[:n/2]) || !bytes.Equal(short, src[:n/2]) {
			t.Fatalf("n=%d: short destination", n)
		}
	}
}

// TestResalt converts sums of random blocks between random salts and between
// the two salt families that meet at a store's write path — a page cache's
// file block index and a store's id<<32|chunk — and holds each conversion to
// a direct ChecksumSalted under the target salt.
func TestResalt(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 8, 4096, 64 << 10} {
		r := NewResalter(n)
		blk := make([]byte, n)
		for range 20 {
			rng.Read(blk)
			from, to := rng.Uint64(), rng.Uint64()
			if rng.Intn(2) == 0 {
				// A file block index against a store chunk salt.
				id, ci := uint64(rng.Intn(1<<20)), uint64(rng.Intn(1<<12))
				from, to = uint64(rng.Intn(1<<16)), id<<32|ci
			}
			sum := ChecksumSalted(from, blk)
			want := ChecksumSalted(to, blk)
			if got := r.Resalt(sum, from, to); got != want {
				t.Fatalf("n=%d: Resalt(%#x, %#x → %#x) = %#x, want %#x", n, sum, from, to, got, want)
			}
			if got := r.Resalt(sum, from, from); got != sum {
				t.Fatalf("n=%d: resalting to the same salt changed the sum", n)
			}
			// One flipped bit in the block must not survive the conversion.
			blk[rng.Intn(n)] ^= 1 << rng.Intn(8)
			if r.Resalt(ChecksumSalted(from, blk), from, to) == want {
				t.Fatalf("n=%d: a damaged block converts to the intact block's sum", n)
			}
		}
	}
}

// Identical bytes at different locations must carry different sums — the
// property that catches misdirected reads.
func TestChecksumSaltBindsLocation(t *testing.T) {
	body := []byte("same bytes, different block")
	if ChecksumSalted(1, body) == ChecksumSalted(2, body) {
		t.Fatal("distinct salts produced identical sums")
	}
	if ChecksumSalted(1, body) == Checksum(body) {
		t.Fatal("salted sum equals unsalted sum")
	}
}

// FuzzChecksumFrame: no mutation of a sealed frame may verify cleanly, and
// verification of arbitrary bytes must never panic or return a body longer
// than its input.
func FuzzChecksumFrame(f *testing.F) {
	f.Add([]byte("seed body"), uint8(0), uint8(1))
	f.Add([]byte{}, uint8(3), uint8(0xFF))
	f.Add(bytes.Repeat([]byte{0x5A}, 256), uint8(200), uint8(0x80))
	f.Fuzz(func(t *testing.T, body []byte, pos, flip uint8) {
		frame := AppendChecksum(append([]byte(nil), body...))
		got, err := VerifyChecksum(frame)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("clean frame rejected: %v", err)
		}
		if flip == 0 {
			return // not a mutation
		}
		mut := append([]byte(nil), frame...)
		mut[int(pos)%len(mut)] ^= flip
		if _, err := VerifyChecksum(mut); err != ErrChecksum {
			t.Fatalf("mutated frame (pos %d, flip %#x) decoded cleanly", pos, flip)
		}
	})
}
