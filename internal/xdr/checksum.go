// Checksummed frames: a CRC32C (Castagnoli) trailer over an encoded blob,
// shared by the WAL's on-disk records and checkpoint image and by the wire
// payload checksums (docs/BACKENDS.md "Block checksums").  The trailer is
// appended outside the XDR encoding proper — VerifyChecksum strips it again
// before the blob is decoded — so a flipped bit anywhere in the frame,
// including the trailer itself, fails verification before any decoder sees
// the bytes.

package xdr

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/bits"
)

// ErrChecksum is returned when a checksummed frame fails verification.
var ErrChecksum = errors.New("xdr: frame checksum mismatch")

// castagnoli is the CRC32C polynomial table (iSCSI/ext4 family) — the same
// checksum real storage stacks use, hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumSize is the length of the trailer AppendChecksum adds.
const ChecksumSize = 4

// Checksum returns the CRC32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumUpdate extends a running CRC32C with b — for summing a sequence
// of frames (the WAL checkpoint image) without concatenating them.
func ChecksumUpdate(sum uint32, b []byte) uint32 { return crc32.Update(sum, castagnoli, b) }

// ChecksumSalted returns the CRC32C of b seeded with salt.  Salting with a
// location (file ID, chunk index, device offset) binds the sum to *where*
// the bytes belong, so a misdirected read — the right checksum travelling
// with the wrong block — still fails verification.
func ChecksumSalted(salt uint64, b []byte) uint32 {
	// Fold the salt in byte-at-a-time (big-endian, as if an 8-byte header
	// preceded b) rather than materializing a header slice: this runs per
	// chunk on the store read/write hot paths, where a heap-escaping 8-byte
	// buffer per call would show up in the alloc ceilings.
	return crc32.Update(^saltState(^uint32(0), salt), castagnoli, b)
}

// saltState returns the CRC32C register after the salt's 8 bytes have been
// fed into it from start — ChecksumSalted's prologue, before the body.
func saltState(start uint32, salt uint64) uint32 {
	sum := start
	for shift := 56; shift >= 0; shift -= 8 {
		sum = castagnoli[byte(sum)^byte(salt>>uint(shift))] ^ (sum >> 8)
	}
	return sum
}

// Resalter converts the salted sum of an n-byte block from one salt to
// another without reading the block.  CRC32C is affine over GF(2): feeding
// the same n bytes from two register states leaves the states differing by
// a fixed linear map of how they differed before, whatever the bytes.  So
//
//	ChecksumSalted(s1, blk) ^ ChecksumSalted(s2, blk) = M(r(s1) ^ r(s2))
//
// where r is the register after the salt and M is the 32×32 matrix of n
// zero bytes.  A store checks a client's sum, salted where the client keeps
// the block, against the one it computes under its own salt while copying
// the block in: one pass over the bytes, and at most 32 XORs per sum.
type Resalter struct {
	cols [32]uint32 // cols[j] is M applied to register bit j
}

// NewResalter precomputes the map for blocks of n bytes.
func NewResalter(n int) *Resalter {
	r := &Resalter{}
	zeros := make([]byte, n)
	for j := range r.cols {
		// crc32.Update inverts on the way in and out: ^Update(^x, zeros) is
		// the register reached from x.
		r.cols[j] = ^crc32.Update(^(uint32(1) << j), castagnoli, zeros)
	}
	return r
}

// Resalt returns ChecksumSalted(to, blk) given sum = ChecksumSalted(from,
// blk), for any block blk of the Resalter's length.
func (r *Resalter) Resalt(sum uint32, from, to uint64) uint32 {
	// Both registers start from the same state, so their difference is the
	// salt difference fed from zero.
	for d := saltState(0, from^to); d != 0; d &= d - 1 {
		sum ^= r.cols[bits.TrailingZeros32(d)]
	}
	return sum
}

// copyGranule is how much CopyChecksum copies before summing it: small
// enough that the CRC reads the destination back from L1.  8 KB was the
// fastest of 1–64 KB for 64 KB chunks on the sandbox.
const copyGranule = 8 << 10

// CopyChecksum copies src into dst, like copy, and extends the running
// CRC32C sum with the copied bytes.  It works a granule at a time — copy a
// few KB, then sum the destination while it is still in cache — so bytes
// that must be both moved and checksummed cross the memory bus once.  Start
// a salted sum with ChecksumSalted(salt, nil).
func CopyChecksum(sum uint32, dst, src []byte) uint32 {
	n := min(len(dst), len(src))
	for i := 0; i < n; i += copyGranule {
		end := min(i+copyGranule, n)
		copy(dst[i:end], src[i:end])
		sum = crc32.Update(sum, castagnoli, dst[i:end])
	}
	return sum
}

// AppendChecksum appends a big-endian CRC32C trailer over b to b itself and
// returns the extended slice.
func AppendChecksum(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, Checksum(b))
}

// VerifyChecksum checks the trailer AppendChecksum added and returns the
// frame body with the trailer stripped.  Any mutation of the frame — body or
// trailer, truncation included — yields ErrChecksum.
func VerifyChecksum(b []byte) ([]byte, error) {
	if len(b) < ChecksumSize {
		return nil, ErrChecksum
	}
	body := b[:len(b)-ChecksumSize]
	want := binary.BigEndian.Uint32(b[len(b)-ChecksumSize:])
	if Checksum(body) != want {
		return nil, ErrChecksum
	}
	return body, nil
}
