package nfs

import (
	"errors"
	"runtime"
	"testing"

	"dpnfs/internal/xdr"
)

// allocatedBy returns the fewest bytes f allocated over a few runs, so a
// background goroutine's allocation cannot fail the caller's check.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// words concatenates XDR words: a frame built by hand.
func words(ws ...uint32) []byte {
	e := xdr.NewEncoder()
	for _, w := range ws {
		e.Uint32(w)
	}
	return e.Bytes()
}

// TestHostileCountsRejectedBeforeAllocating gives every counted array of the
// NFS wire a short frame whose count is within the array's bound but far
// beyond what the frame holds.  Decoding must fail without allocating for
// the elements that are not there (the count rule in package xdr).
func TestHostileCountsRejectedBeforeAllocating(t *testing.T) {
	const hostile = 4096 // the device and layout bound; a compound's is 1024
	cases := []struct {
		name  string
		msg   func() xdr.Codec
		frame []byte
	}{
		{"READDIR names", func() xdr.Codec { return &ResReadDir{} },
			words(0, 1<<20, 0)},
		{"GETDEVICELIST devices", func() xdr.Codec { return &ResGetDevList{} },
			words(0, hostile, 0)},
		{"layout params", func() xdr.Codec { return &ResLayoutGet{} },
			words(0, 0, hostile, 0)},
		{"layout devices", func() xdr.Codec { return &ResLayoutGet{} },
			words(0, 0, 0, hostile, 0)},
		{"READ block sums", func() xdr.Codec { return &ResRead{} },
			words(0, 0, 0, 0, sumBlocks, 0, 0, maxBlockSums, 0)},
		{"WRITE block sums", func() xdr.Codec { return &OpWrite{} },
			words(0, 0, 0, 0, 0, writeBlocks, 0, 0, maxBlockSums, 0)},
		{"COMPOUND operations", func() xdr.Codec { return &CompoundArgs{} },
			words(0, 0, 0, 0, 0, maxCompoundOps, OpNumGetAttr)},
		{"COMPOUND results", func() xdr.Codec { return &CompoundRep{} },
			words(0, maxCompoundOps, OpNumPutFH, 0)},
	}
	for _, c := range cases {
		var err error
		n := allocatedBy(func() { err = xdr.Decode(c.frame, c.msg()) })
		if !errors.Is(err, xdr.ErrShortBuffer) {
			t.Errorf("%s: a %d-byte frame with a hostile count decodes with error %v, want %v",
				c.name, len(c.frame), err, xdr.ErrShortBuffer)
		}
		if n >= 1<<10 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", c.name, len(c.frame), n)
		}
	}
}
