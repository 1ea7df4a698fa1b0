package pvfs

import (
	"errors"
	"runtime"
	"testing"

	"dpnfs/internal/xdr"
)

// TestHostileCountsRejectedBeforeAllocating gives every counted array of the
// PVFS2 wire a short frame whose count is within the array's bound but far
// beyond what the frame holds.  Decoding must fail without allocating for
// the elements that are not there (the count rule in package xdr).
func TestHostileCountsRejectedBeforeAllocating(t *testing.T) {
	words := func(ws ...uint32) []byte {
		e := xdr.NewEncoder()
		for _, w := range ws {
			e.Uint32(w)
		}
		return e.Bytes()
	}
	// errno, handle, then a distribution: stripe size, server count, servers
	dist := words(0, 0, 7, 0, 1<<20, 3, maxServers, 0)
	cases := []struct {
		name  string
		msg   func() xdr.Codec
		frame []byte
	}{
		{"readdir names", func() xdr.Codec { return &ReadDirRep{} }, words(0, 1<<20, 0)},
		{"create distribution servers", func() xdr.Codec { return &CreateRep{} }, dist},
		{"placement distribution servers", func() xdr.Codec { return &PlacementRep{} }, dist},
	}
	for _, c := range cases {
		var err error
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = xdr.Decode(c.frame, c.msg())
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if !errors.Is(err, xdr.ErrShortBuffer) {
			t.Errorf("%s: a %d-byte frame with a hostile count decodes with error %v, want %v",
				c.name, len(c.frame), err, xdr.ErrShortBuffer)
		}
		if least >= 1<<10 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", c.name, len(c.frame), least)
		}
	}
}
