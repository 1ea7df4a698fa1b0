package nfs

import (
	"errors"
	"sync/atomic"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// flakyConn is a real-time MDS stub: WRITE compounds alternate between
// success and failure, so concurrent flush goroutines hit both the
// asyncErr and the touched-map paths at once.
type flakyConn struct {
	calls atomic.Uint64
}

var errFlaky = errors.New("nfs test: injected flush failure")

func (c *flakyConn) Call(_ *rpc.Ctx, _ uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	n := c.calls.Add(1)
	if n%2 == 0 {
		return errFlaky
	}
	ca := args.(*CompoundArgs)
	rep := reply.(*CompoundRep)
	rep.Status = 0
	rep.Results = make([]Result, len(ca.Ops))
	return nil
}

// TestFlushAsyncErrRace is the regression test for the File.asyncErr data
// race (ISSUE 4): background write-back flushes run as real goroutines in
// real-time mode and record failures and touched devices concurrently.
// Under -race this fails if asyncErr or touched are accessed without
// pendMu.
func TestFlushAsyncErrRace(t *testing.T) {
	conn := &flakyConn{}
	c := NewClient(ClientConfig{
		MDS:   conn,
		WSize: 4 << 10,
		Name:  "race-test",
	})
	f := &File{
		c:       c,
		Path:    "/race",
		cache:   newPageCache(false, nil),
		touched: make(map[int]bool),
	}
	ctx := &rpc.Ctx{} // real-time mode: flushes are concurrent goroutines
	const chunks = 64
	for i := 0; i < chunks; i++ {
		if err := c.Write(ctx, f, int64(i)*(4<<10), payload.Synthetic(4<<10)); err != nil {
			t.Fatal(err)
		}
	}
	// Fsync must join every in-flight flush and surface exactly the
	// injected failure (half the flushes fail).
	if err := c.Fsync(ctx, f); !errors.Is(err, errFlaky) {
		t.Fatalf("Fsync = %v, want the injected flush error", err)
	}
	// The error is consumed: with the conn now healthy-ish, remaining state
	// must be consistent (touched survived the failed fsync's early return).
	f.pendMu.Lock()
	touched := len(f.touched)
	f.pendMu.Unlock()
	if touched == 0 {
		t.Error("no touched devices recorded despite successful flushes")
	}
}
