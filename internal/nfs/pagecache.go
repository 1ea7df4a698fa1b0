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
	"dpnfs/internal/store"
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
// immutable — an overlapping write replaces them with cuts of themselves —
// so a view is a stable snapshot that outlives DropCaches, Close and
// overwrite, and the buffer returns to its pool at the last Release.  Every
// segment carries a location-salted CRC32C per 64 KB block, verified on
// every slice: a fill adopts the sums the server's store verified for whole
// blocks (store.BlockSums) and seals the rest, a write seals its blocks as
// it copies them in.
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
	// sealed counts the bytes it checksums to seal blocks itself (every
	// write, fetched blocks that came without adoptable sums, re-sealed cut
	// edges); a cold aligned Direct-pNFS read pass leaves it unchanged.
	copied, sealed *metrics.Counter
	// refs counts who can still read the cache: the client's inode cache
	// holds one reference and every open File sharing the cache holds one.
	// The last release drops the segments, so DropCaches returns a whole
	// working set to the buffer pool (less whatever views still pin).
	refs atomic.Int32
}

// sumBlock is the checksum granule: one CRC32C per file-aligned block a
// segment overlaps.  It is the stores' chunk size, so the sum a server's
// store verified for a chunk can stand in for the block's
// (docs/BACKENDS.md "Block checksums").
const sumBlock = store.ChunkSize

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
//
// Block i of a segment is salted salt+i, so bytes that turn up at the wrong
// offset fail verification: salt is the first block's file block index when
// the cache sealed the blocks itself, and the store's chunk salt when it
// adopted a server's sums.
type segment struct {
	off  int64
	data []byte
	salt uint64
	sums []uint32 // sums[i] covers the segment's part of file block off/sumBlock+i
	// wire has bit i set while sums[i] is a server's sum that no check has
	// passed yet, so a mismatch may be damage on the way rather than in
	// client RAM.  Only the first 64 blocks can be adopted.
	wire atomic.Uint64
	buf  *segBuf
}

// newSegment makes the segment of data at off; it owns the initial
// reference on buf, which knows where data came from.  It adopts the sums of
// adopt — a server's, for the whole blocks from the first block boundary at
// or after off — and seals every block they do not cover.  With src non-nil
// data is filled from src first, each block sealed as it is copied (a
// write's single pass over its bytes).
func (pc *pageCache) newSegment(off int64, data, src []byte, buf *segBuf, adopt store.BlockSums) *segment {
	s := &segment{off: off, data: data, buf: buf, salt: uint64(off / sumBlock)}
	buf.refs.Store(1)
	n := int((s.end()-1)/sumBlock - off/sumBlock + 1)
	head := 0 // a partial first block is sealed here
	if off%sumBlock != 0 {
		head = 1
	}
	whole := n - head
	if s.end()%sumBlock != 0 {
		whole--
	}
	k := max(min(len(adopt.Sums), whole, 64-head), 0)
	if k == n {
		s.sums = adopt.Sums[:n:n] // the decoded sums become the segment's
	} else {
		s.sums = make([]uint32, n)
		copy(s.sums[head:], adopt.Sums[:k])
	}
	if k > 0 {
		s.salt = adopt.Salt0 - uint64(head)
		s.wire.Store((uint64(1)<<k - 1) << head)
	}
	var sealed int64
	for i := range s.sums {
		if i >= head && i < head+k {
			continue
		}
		lo, hi := s.block(i)
		if src != nil {
			s.sums[i] = xdr.CopyChecksum(xdr.ChecksumSalted(s.salt+uint64(i), nil), data[lo:hi], src[lo:hi])
		} else {
			s.sums[i] = s.blockSum(i)
		}
		sealed += hi - lo
	}
	pc.sealed.Add(uint64(sealed))
	return s
}

func (s *segment) end() int64 { return s.off + int64(len(s.data)) }

// block returns the bounds of the segment's i-th block within data.
func (s *segment) block(i int) (lo, hi int64) {
	bi := s.off/sumBlock + int64(i)
	return max(bi*sumBlock, s.off) - s.off, min((bi+1)*sumBlock, s.end()) - s.off
}

// blockSum computes the checksum of the segment's i-th block.
func (s *segment) blockSum(i int) uint32 {
	lo, hi := s.block(i)
	return xdr.ChecksumSalted(s.salt+uint64(i), s.data[lo:hi])
}

// verify checks every block overlapping [lo, hi).  A block that fails its
// first check against a server's sum arrived damaged: verify reports false,
// and the caller drops it and fetches it again.  Any other mismatch means
// client RAM (or a pooled buffer someone released too early) changed under
// the cache; like the store read it replaces, that is fatal, not an I/O
// error.
func (s *segment) verify(lo, hi int64) bool {
	first := s.off / sumBlock
	for bi := lo / sumBlock; bi <= (hi-1)/sumBlock; bi++ {
		i := int(bi - first)
		if s.blockSum(i) == s.sums[i] {
			s.trust(i)
			continue
		}
		if s.wire.Load()&(uint64(1)<<i) != 0 {
			return false
		}
		panic(fmt.Sprintf("nfs: page cache: checksum mismatch in cached block %d", bi))
	}
	return true
}

// handOver returns the sums of the blocks that lie whole inside [lo, hi), a
// range of s, for a WRITE to carry to the server's store — which checks
// them as it copies the bytes in — instead of verifying them here, and
// verifies the rest of the range: the partial blocks at its edges.  A run
// holding an unchecked server sum is not handed over but verified whole.
// ok is false as for verify.
func (s *segment) handOver(lo, hi int64) (sums store.BlockSums, ok bool) {
	first := s.off / sumBlock
	i0, i1 := int((lo+sumBlock-1)/sumBlock-first), int(hi/sumBlock-first)
	if i0 >= i1 || s.wire.Load()&((uint64(1)<<(i1-i0)-1)<<i0) != 0 {
		return store.BlockSums{}, s.verify(lo, hi)
	}
	wlo := (first + int64(i0)) * sumBlock
	whi := (first + int64(i1)) * sumBlock
	if lo < wlo && !s.verify(lo, wlo) || whi < hi && !s.verify(whi, hi) {
		return store.BlockSums{}, false
	}
	return store.BlockSums{Salt0: s.salt + uint64(i0), Sums: s.sums[i0:i1:i1]}, true
}

// trust records that block i's sum is no longer an unchecked server sum.
func (s *segment) trust(i int) {
	bit := uint64(1) << i
	for old := s.wire.Load(); old&bit != 0 && !s.wire.CompareAndSwap(old, old&^bit); old = s.wire.Load() {
	}
}

// cut returns the sub-segment [lo, hi) sharing (and retaining) s's buffer.
// Interior blocks keep their sums, unchecked server sums staying unchecked;
// an edge block the cut shortens is re-sealed, after verifying the block it
// was cut from so that a damaged block cannot be laundered into a valid one.
// cut returns nil when that block arrived damaged (verify).
func (s *segment) cut(lo, hi int64, sealed *metrics.Counter) *segment {
	if lo == s.off && hi == s.end() {
		s.buf.Retain()
		return s
	}
	c := &segment{off: lo, data: s.data[lo-s.off : hi-s.off : hi-s.off], buf: s.buf}
	first := int(lo/sumBlock - s.off/sumBlock)
	c.salt = s.salt + uint64(first)
	c.sums = slices.Clone(s.sums[first : first+int((hi-1)/sumBlock-lo/sumBlock)+1])
	c.wire.Store(s.wire.Load() >> first & (uint64(1)<<len(c.sums) - 1))
	reseal := func(i int, at int64) bool {
		if !s.verify(at, at+1) {
			return false
		}
		c.sums[i] = c.blockSum(i)
		c.trust(i)
		blo, bhi := c.block(i)
		sealed.Add(uint64(bhi - blo))
		return true
	}
	last := len(c.sums) - 1
	frontCut := lo%sumBlock != 0 && lo != s.off
	backCut := hi%sumBlock != 0 && hi != s.end()
	if (frontCut || backCut && last == 0) && !reseal(0, lo) {
		return nil
	}
	if backCut && last > 0 && !reseal(last, hi-1) {
		return nil
	}
	s.buf.Retain()
	return c
}

func newPageCache(real bool, copied, sealed *metrics.Counter) *pageCache {
	pc := &pageCache{real: real, copied: copied, sealed: sealed}
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
// themselves — or, when a cut finds its edge block arrived damaged, dropped
// too and made non-resident, so the next read fetches them again.  Requires
// mu.
func (pc *pageCache) carve(lo, hi int64) {
	i := pc.find(lo)
	j := i
	var keep []*segment
	keepCut := func(s *segment, a, b int64) {
		if c := s.cut(a, b, pc.sealed); c != nil {
			keep = append(keep, c)
		} else {
			pc.resident = pc.resident.subtract(a, b)
		}
	}
	for ; j < len(pc.segs) && pc.segs[j].off < hi; j++ {
		s := pc.segs[j]
		if s.off < lo {
			keepCut(s, s.off, lo)
		}
		if s.end() > hi {
			keepCut(s, hi, s.end())
		}
		s.buf.Release()
	}
	pc.segs = slices.Replace(pc.segs, i, j, keep...)
}

// drop removes s, whose bytes arrived damaged, if it is still listed, and
// makes its range non-resident so the next read fetches it again.  Only
// fetched segments can arrive damaged, and fetched bytes are never dirty.
// Requires mu.
func (pc *pageCache) drop(s *segment) {
	if i := pc.find(s.off); i < len(pc.segs) && pc.segs[i] == s {
		pc.segs = slices.Delete(pc.segs, i, i+1)
		pc.resident = pc.resident.subtract(s.off, s.end())
		s.buf.Release()
	}
}

// insert adds s, which must overlap no listed segment, taking over the
// caller's reference on its buffer.  Requires mu.
func (pc *pageCache) insert(s *segment) {
	pc.segs = slices.Insert(pc.segs, pc.find(s.off), s)
}

// write installs data at off as resident and dirty, copying the
// application's bytes once into a pooled buffer — sealing each block as it
// goes — and replacing whatever the cache held there.
func (pc *pageCache) write(off int64, data payload.Payload) {
	end := off + data.Len()
	var seg *segment
	if pc.real && len(data.Bytes) > 0 {
		buf := rpc.GetBuf(len(data.Bytes))
		seg = pc.newSegment(off, buf, data.Bytes, &segBuf{pooled: buf}, store.BlockSums{})
		pc.copied.Add(uint64(len(buf)))
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
// segment or view cut from them goes; the segment adopts sums, the block
// sums the server sent with them (newSegment).  Bytes that are already
// resident win over the fetched ones (they are at least as new: a hedged or
// fallback duplicate of the same READ, or a write that landed since the
// miss), so a duplicate fill releases its payload on the spot.  fill reports
// false when cutting the new segment to fit found a block that arrived
// damaged; that gap stays non-resident and the caller re-reads it.
func (pc *pageCache) fill(off int64, data payload.Payload, sums store.BlockSums) bool {
	end := off + data.Len()
	var seg *segment
	if pc.real && len(data.Bytes) > 0 {
		seg = pc.newSegment(off, data.Bytes, nil, &segBuf{lent: data}, sums)
	} else {
		data.Release()
	}
	ok := true
	pc.mu.Lock()
	var gaps []extent
	if seg != nil {
		gaps = pc.resident.missing(off, end)
	}
	pc.resident = pc.resident.insert(off, end)
	for _, gap := range gaps {
		if c := seg.cut(gap.Off, gap.End, pc.sealed); c != nil {
			pc.insert(c)
		} else {
			pc.resident = pc.resident.subtract(gap.Off, gap.End)
			ok = false
		}
	}
	pc.mu.Unlock()
	if seg != nil {
		seg.buf.Release() // newSegment's reference; installed cuts hold their own
	}
	return ok
}

// missingResident returns the gaps of [lo, hi) not yet resident.
func (pc *pageCache) missingResident(lo, hi int64) []extent {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.resident.missing(lo, hi)
}

// firstDirty returns the lowest dirty extent.
func (pc *pageCache) firstDirty() (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.dirty.first()
}

// loneDirty returns the dirty extent when there is exactly one.
func (pc *pageCache) loneDirty() (extent, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.dirty) != 1 {
		return extent{}, false
	}
	return pc.dirty[0], true
}

// slice returns the cached content of [off, off+n) — the caller must have
// established residency — every block it touches verified (sliceWith).
func (pc *pageCache) slice(off, n int64) (payload.Payload, bool) {
	data, _, ok := pc.sliceWith(off, n, false)
	return data, ok
}

// sliceWith returns the cached content of [off, off+n) — the caller must
// have established residency.  Synthetic mode returns a synthetic payload.
//
// A range inside one segment (an aligned RSize read, a flush of what one
// write put in the cache) comes back as a view of that segment: no copy, and
// the segment's buffer stays pinned until the consumer — a flush's RPC path,
// or the application reading through Mount.Read — releases the payload
// (unreleased payloads just fall to the GC).  The view is read-only.  Any
// other range is gathered into a pooled buffer, holes zero-filled.  Either
// way every block touched is verified first; ok is false when a block failed
// its first check against a server's sum, in which case sliceWith has
// dropped the segment holding it and the caller fetches the range again
// (Client.Read).
//
// With handOver set — a flush taking its dirty run — the whole blocks of the
// range are not verified but handed over (segment.handOver): sums is the run
// of their sums from the range's first block boundary, which the WRITE
// carries to the server's store.  Only the blocks outside that run are
// verified here: the partial blocks at the range's edges and, when gathering,
// the blocks after one that no single segment holds whole.
func (pc *pageCache) sliceWith(off, n int64, handOver bool) (data payload.Payload, sums store.BlockSums, ok bool) {
	if !pc.real {
		return payload.Synthetic(n), store.BlockSums{}, true
	}
	end := off + n
	pc.mu.Lock()
	i := pc.find(off)
	if i < len(pc.segs) && n > 0 {
		if s := pc.segs[i]; s.off <= off && end <= s.end() {
			s.buf.Retain()
			pc.mu.Unlock()
			if handOver {
				sums, ok = s.handOver(off, end)
			} else {
				ok = s.verify(off, end)
			}
			if !ok {
				s.buf.Release()
				pc.mu.Lock()
				pc.drop(s)
				pc.mu.Unlock()
				return payload.Payload{}, store.BlockSums{}, false
			}
			return payload.RealOwned(s.data[off-s.off:end-s.off:end-s.off], s.buf), sums, true
		}
	}
	defer pc.mu.Unlock()
	buf := rpc.GetBuf(int(n))
	cur := off
	next := (off + sumBlock - 1) / sumBlock // the file block the run of sums goes on at
	for ; i < len(pc.segs) && pc.segs[i].off < end; i++ {
		s := pc.segs[i]
		lo, hi := max(s.off, off), min(s.end(), end)
		var got store.BlockSums
		if handOver {
			got, ok = s.handOver(lo, hi)
			if ok && got.Sums != nil && ((lo+sumBlock-1)/sumBlock != next ||
				sums.Sums != nil && got.Salt0 != sums.Salt0+uint64(len(sums.Sums))) {
				// These blocks cannot continue the run: check them here.
				got, ok = store.BlockSums{}, s.verify(lo, hi)
			}
		} else {
			ok = s.verify(lo, hi)
		}
		if !ok {
			pc.drop(s)
			rpc.PutBuf(buf)
			return payload.Payload{}, store.BlockSums{}, false
		}
		if got.Sums != nil {
			if sums.Sums == nil {
				sums = store.BlockSums{Salt0: got.Salt0, Sums: make([]uint32, 0, n/sumBlock)}
			}
			sums.Sums = append(sums.Sums, got.Sums...)
			next += int64(len(got.Sums))
		}
		clear(buf[cur-off : lo-off])
		pc.copied.Add(uint64(copy(buf[lo-off:hi-off], s.data[lo-s.off:])))
		cur = hi
	}
	clear(buf[cur-off:])
	return payload.RealPooled(buf, func() { rpc.PutBuf(buf) }), sums, true
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
