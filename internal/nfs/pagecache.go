package nfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// pageCache is the client-side cache for one open file: byte-granular
// residency and dirtiness, with real content kept in immutable segments
// when the mount operates on real bytes (integration tests and the TCP
// demo).  Benchmarks run synthetic, where only the extents matter.
//
// Content is never copied on the READ path: fill adopts the reply payload
// (over TCP, the pooled frame it was borrow-decoded from) as a segment, and
// slice hands out views that retain the segment's buffer.  Segments are
// immutable — an overlapping write or truncate replaces them with cuts of
// themselves — so a view is a stable snapshot that outlives DropCaches,
// Close, truncate and overwrite, and the buffer returns to its pool at the
// last Release.  Every segment carries a location-salted CRC32C per 64 KB
// block, sealed when the bytes enter the cache and verified on every slice.
//
// There is no eviction: the paper's working sets fit client RAM (≤ 650 MB
// per client against 2 GB), and synthetic mode stores no bytes anyway.
// The lists are guarded by mu: parallel striped fetches and flushes run as
// concurrent goroutines in real-time (TCP) mode.  Under simulation the
// cooperative scheduler makes the locking moot but harmless.
type pageCache struct {
	mu       sync.Mutex
	resident extList
	dirty    extList
	real     bool
	// segs holds the cached content: sorted by offset, non-overlapping, and
	// covering only resident bytes.  A resident byte outside every segment
	// is a hole and reads as zero.  Always empty in synthetic mode.
	segs []*segment
	// copied counts the bytes the cache memcpy's (every write, and slice's
	// gather fallback); an aligned read pass must leave it unchanged.
	copied *metrics.Counter
	// refs counts who can still read the cache: the client's inode cache
	// holds one reference and every open File sharing the cache holds one.
	// The last release drops the segments, so DropCaches returns a whole
	// working set to the buffer pool (less whatever views still pin).
	refs atomic.Int32
}

// sumBlock is the checksum granule: one CRC32C per file-aligned block a
// segment overlaps, salted with the block's index so bytes that turn up at
// the wrong offset fail verification (docs/BACKENDS.md "Block checksums").
const sumBlock = 64 << 10

// segBuf is the reference-counted memory under one or more segments and
// views — an xdr.Owner, like the rpc.RefBuf it usually stands in front of.
// Exactly one of its two fields says where the memory goes at the last
// Release.
type segBuf struct {
	refs   atomic.Int32
	pooled []byte          // a write's buffer: back to rpc's pool
	lent   payload.Payload // an adopted reply: released (over TCP, its pooled frame)
}

func (b *segBuf) Retain() { b.refs.Add(1) }

func (b *segBuf) Release() {
	if n := b.refs.Add(-1); n == 0 {
		if b.pooled != nil {
			rpc.PutBuf(b.pooled)
		}
		b.lent.Release()
	} else if n < 0 {
		panic("nfs: page-cache buffer over-released")
	}
}

// segment is an immutable run of cached bytes at a file offset.  It holds
// one reference on buf for as long as it is in a cache's list.
type segment struct {
	off  int64
	data []byte
	sums []uint32 // sums[i] covers the segment's part of file block off/sumBlock+i
	buf  *segBuf
}

// newSegment seals data at off.  The segment owns the initial reference on
// buf, which knows where data came from.
func newSegment(off int64, data []byte, buf *segBuf) *segment {
	s := &segment{off: off, data: data, buf: buf}
	buf.refs.Store(1)
	s.sums = make([]uint32, (s.end()-1)/sumBlock-off/sumBlock+1)
	for i := range s.sums {
		s.sums[i] = s.blockSum(i)
	}
	return s
}

func (s *segment) end() int64 { return s.off + int64(len(s.data)) }

// blockSum computes the checksum of the segment's i-th block.
func (s *segment) blockSum(i int) uint32 {
	bi := s.off/sumBlock + int64(i)
	lo := max(bi*sumBlock, s.off) - s.off
	hi := min((bi+1)*sumBlock, s.end()) - s.off
	return xdr.ChecksumSalted(uint64(bi), s.data[lo:hi])
}

// verify checks every block overlapping [lo, hi).  A mismatch means client
// RAM (or a pooled buffer someone released too early) changed under the
// cache; like the store read it replaces, that is fatal, not an I/O error.
func (s *segment) verify(lo, hi int64) {
	first := s.off / sumBlock
	for bi := lo / sumBlock; bi <= (hi-1)/sumBlock; bi++ {
		if i := int(bi - first); s.blockSum(i) != s.sums[i] {
			panic(fmt.Sprintf("nfs: page cache: checksum mismatch in cached block %d", bi))
		}
	}
}

// cut returns the sub-segment [lo, hi) sharing (and retaining) s's buffer.
// Interior blocks keep their sums; an edge block the cut shortens is
// re-sealed, after verifying the block it was cut from so that a damaged
// block cannot be laundered into a valid one.
func (s *segment) cut(lo, hi int64) *segment {
	s.buf.Retain()
	if lo == s.off && hi == s.end() {
		return s
	}
	c := &segment{off: lo, data: s.data[lo-s.off : hi-s.off : hi-s.off], buf: s.buf}
	first := int(lo/sumBlock - s.off/sumBlock)
	c.sums = slices.Clone(s.sums[first : first+int((hi-1)/sumBlock-lo/sumBlock)+1])
	last := len(c.sums) - 1
	frontCut := lo%sumBlock != 0 && lo != s.off
	backCut := hi%sumBlock != 0 && hi != s.end()
	if frontCut || backCut && last == 0 {
		s.verify(lo, lo+1)
		c.sums[0] = c.blockSum(0)
	}
	if backCut && last > 0 {
		s.verify(hi-1, hi)
		c.sums[last] = c.blockSum(last)
	}
	return c
}

func newPageCache(real bool, copied *metrics.Counter) *pageCache {
	pc := &pageCache{real: real, copied: copied}
	pc.refs.Store(1)
	return pc
}

// retain adds a reference (an additional File opening the same inode).
func (pc *pageCache) retain() { pc.refs.Add(1) }

// release drops a reference; the last one drops every segment.  Callers
// must not touch the cache after their final release; views they already
// hold stay valid.
func (pc *pageCache) release() {
	if n := pc.refs.Add(-1); n == 0 {
		pc.mu.Lock()
		pc.carve(0, 1<<62)
		pc.mu.Unlock()
	} else if n < 0 {
		panic("nfs: pageCache over-released")
	}
}

// find returns the index of the first segment ending after off.
func (pc *pageCache) find(off int64) int {
	return sort.Search(len(pc.segs), func(i int) bool { return pc.segs[i].end() > off })
}

// carve removes [lo, hi) from the segment list: segments inside the range
// are dropped, the (at most two) straddling it are replaced by cuts of
// themselves.  Requires mu.
func (pc *pageCache) carve(lo, hi int64) {
	i := pc.find(lo)
	j := i
	var keep []*segment
	for ; j < len(pc.segs) && pc.segs[j].off < hi; j++ {
		s := pc.segs[j]
		if s.off < lo {
			keep = append(keep, s.cut(s.off, lo))
		}
		if s.end() > hi {
			keep = append(keep, s.cut(hi, s.end()))
		}
		s.buf.Release()
	}
	pc.segs = slices.Replace(pc.segs, i, j, keep...)
}

// insert adds s, which must overlap no listed segment, taking over the
// caller's reference on its buffer.  Requires mu.
func (pc *pageCache) insert(s *segment) {
	pc.segs = slices.Insert(pc.segs, pc.find(s.off), s)
}

// write installs data at off as resident and dirty, copying the
// application's bytes once into a pooled buffer and replacing whatever the
// cache held there.
func (pc *pageCache) write(off int64, data payload.Payload) {
	end := off + data.Len()
	var seg *segment
	if pc.real && len(data.Bytes) > 0 {
		buf := rpc.GetBuf(len(data.Bytes))
		copy(buf, data.Bytes)
		pc.copied.Add(uint64(len(buf)))
		seg = newSegment(off, buf, &segBuf{pooled: buf})
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.resident = pc.resident.insert(off, end)
	pc.dirty = pc.dirty.insert(off, end)
	pc.carve(off, end)
	if seg != nil {
		pc.insert(seg)
	}
}

// fill installs fetched data at off as resident (clean) and takes over the
// payload: real bytes are adopted as a segment — no copy; over TCP the
// reply's pooled frame stays alive behind it — and released when the last
// segment or view cut from them goes.  Bytes that are already resident win
// over the fetched ones (they are at least as new: a hedged or fallback
// duplicate of the same READ, or a write that landed since the miss), so a
// duplicate fill releases its payload on the spot.
func (pc *pageCache) fill(off int64, data payload.Payload) {
	end := off + data.Len()
	var seg *segment
	if pc.real && len(data.Bytes) > 0 {
		seg = newSegment(off, data.Bytes, &segBuf{lent: data})
	} else {
		data.Release()
	}
	pc.mu.Lock()
	if seg != nil {
		for _, gap := range pc.resident.missing(off, end) {
			pc.insert(seg.cut(gap.Off, gap.End))
		}
	}
	pc.resident = pc.resident.insert(off, end)
	pc.mu.Unlock()
	if seg != nil {
		seg.buf.Release() // newSegment's reference; installed cuts hold their own
	}
}

// missingResident returns the gaps of [lo, hi) not yet resident.
func (pc *pageCache) missingResident(lo, hi int64) []extent {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.resident.missing(lo, hi)
}

// truncate drops cached state at and beyond size.
func (pc *pageCache) truncate(size int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.resident = pc.resident.subtract(size, 1<<62)
	pc.dirty = pc.dirty.subtract(size, 1<<62)
	pc.carve(size, 1<<62)
}

// firstDirty returns the lowest dirty extent.
func (pc *pageCache) firstDirty() (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dirty.first()
}

// slice returns the cached content of [off, off+n) — the caller must have
// established residency.  Synthetic mode returns a synthetic payload.
//
// A range inside one segment (an aligned RSize read, every WSize flush)
// comes back as a view of that segment: no copy, and the segment's buffer
// stays pinned until the consumer — a flush's RPC path, or the application
// reading through Mount.Read — releases the payload (unreleased payloads
// just fall to the GC).  The view is read-only.  Any other range is gathered
// into a pooled buffer, holes zero-filled.  Either way every block touched
// is verified first.
func (pc *pageCache) slice(off, n int64) payload.Payload {
	if !pc.real {
		return payload.Synthetic(n)
	}
	end := off + n
	pc.mu.Lock()
	i := pc.find(off)
	if i < len(pc.segs) && n > 0 {
		if s := pc.segs[i]; s.off <= off && end <= s.end() {
			s.buf.Retain()
			pc.mu.Unlock()
			s.verify(off, end)
			return payload.RealOwned(s.data[off-s.off:end-s.off:end-s.off], s.buf)
		}
	}
	defer pc.mu.Unlock()
	buf := rpc.GetBuf(int(n))
	cur := off
	for ; i < len(pc.segs) && pc.segs[i].off < end; i++ {
		s := pc.segs[i]
		lo, hi := max(s.off, off), min(s.end(), end)
		s.verify(lo, hi)
		clear(buf[cur-off : lo-off])
		pc.copied.Add(uint64(copy(buf[lo-off:hi-off], s.data[lo-s.off:])))
		cur = hi
	}
	clear(buf[cur-off:])
	return payload.RealPooled(buf, func() { rpc.PutBuf(buf) })
}

// clean marks [off, end) as flushed.
func (pc *pageCache) clean(off, end int64) {
	pc.mu.Lock()
	pc.dirty = pc.dirty.subtract(off, end)
	pc.mu.Unlock()
}

// dirtyRunAtLeast returns the lowest dirty extent of at least n bytes.
func (pc *pageCache) dirtyRunAtLeast(n int64) (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, e := range pc.dirty {
		if e.len() >= n {
			return e, true
		}
	}
	return extent{}, false
}
