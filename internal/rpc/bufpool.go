package rpc

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer pool for transfer-sized []byte, shared by the TCP transport's frame
// decode path, by server backends producing bulk read payloads and by the
// client page cache's write buffers.  Buffers live in size classes so a
// steady-state server reuses the same handful of allocations regardless of
// request mix — the bufpool idiom of production NFS servers.
//
// A class is a power of two plus frameSlack: what gets pooled is a
// power-of-two transfer, bare (a backend's read buffer) or wrapped in a few
// dozen bytes of RPC and compound framing (the frame it arrives in).  The
// client page cache keeps READ reply frames for as long as it caches their
// payload, so a 2 MiB reply must not round up to a 4 MiB buffer.
//
// Pooled buffers are returned dirty; every user overwrites the full length
// it requested (frame reads use io.ReadFull, backend reads are clamped to
// the stored size, and sparse stores zero-fill holes explicitly).

const (
	minBufBits = 10 // smallest class: 1 KiB + frameSlack
	maxBufBits = 25 // largest class: 32 MiB + frameSlack, above MaxOpaque + framing
	numClasses = maxBufBits - minBufBits + 1

	// frameSlack is the headroom every class has over its power of two:
	// several times the framing around one bulk payload (HeaderBytes plus
	// an NFS compound's or PVFS2 reply's scalars, ≈ 100 bytes).
	frameSlack = 512
)

var bufClasses [numClasses]sync.Pool

// classSize is the capacity of class c's buffers.
func classSize(c int) int { return 1<<(c+minBufBits) + frameSlack }

// classFor returns the smallest class whose size is >= n, or -1 when n is
// larger than the largest class.
func classFor(n int) int {
	if n <= classSize(0) {
		return 0
	}
	c := bits.Len(uint(n-frameSlack-1)) - minBufBits
	if c >= numClasses {
		return -1
	}
	return c
}

// GetBuf returns a buffer of length n, reusing pooled storage when a class
// fits.  Contents are unspecified.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if p, ok := bufClasses[c].Get().(*[]byte); ok {
		return (*p)[:n]
	}
	return make([]byte, n, classSize(c))
}

// PutBuf recycles a buffer obtained from GetBuf (or any slice of a pooled
// size).  The caller must not touch b afterwards.
func PutBuf(b []byte) {
	c := classFor(cap(b))
	if c < 0 || cap(b) != classSize(c) {
		// Oversized or odd-capacity buffers are left to the GC rather than
		// poisoning a class with a wrong-sized backing array.
		return
	}
	if poisonOnPut.Load() {
		full := b[:cap(b)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	b = b[:0]
	bufClasses[c].Put(&b)
}

// poisonByte overwrites recycled buffers when poison-on-put is enabled, so
// a borrow that outlives its frame reads a recognizable pattern instead of
// whatever the next user wrote.
const poisonByte = 0xA5

var poisonOnPut atomic.Bool

// SetPoisonOnPut enables (or disables) poisoning of every buffer returned
// to the pool.  Tests and fuzz targets use it to turn a silent
// use-after-release of a borrowed decode into a deterministic data
// mismatch.  Returns the previous setting.
func SetPoisonOnPut(on bool) bool { return poisonOnPut.Swap(on) }

// Buffer-flow counters (docs/METRICS.md): how many opaques were decoded by
// reference out of pooled frames, and how many pooled reply buffers
// Ctx.ReplyBuf handed to their consumer by reference where the pre-pool
// code copied.  They are package-global (the pool itself is global);
// BufCounters reads them for metric snapshots.
var (
	bufBorrowed      atomic.Uint64
	bufCopiesAvoided atomic.Uint64
)

// countBorrowed credits n borrow-decodes to rpc_buf_borrowed_total.
func countBorrowed(n int) {
	if n > 0 {
		bufBorrowed.Add(uint64(n))
	}
}

// BufCounters returns the cumulative borrow and avoided-copy counts.
func BufCounters() (borrowed, copiesAvoided uint64) {
	return bufBorrowed.Load(), bufCopiesAvoided.Load()
}

// RefBuf is a reference-counted pooled buffer: it implements xdr.Owner so
// borrow-mode decodes can keep a reply frame alive until the last consumer
// of a borrowed payload releases it, at which point the frame returns to
// the pool.  The creator holds the initial reference.
type RefBuf struct {
	buf  []byte
	refs atomic.Int32
}

// NewRefBuf wraps a pooled buffer with reference count 1.
func NewRefBuf(b []byte) *RefBuf {
	r := &RefBuf{buf: b}
	r.refs.Store(1)
	return r
}

// Retain adds a reference.
func (r *RefBuf) Retain() { r.refs.Add(1) }

// Release drops a reference; the last one returns the buffer to the pool.
func (r *RefBuf) Release() {
	if n := r.refs.Add(-1); n == 0 {
		b := r.buf
		r.buf = nil
		PutBuf(b)
	} else if n < 0 {
		panic("rpc: RefBuf over-released")
	}
}
