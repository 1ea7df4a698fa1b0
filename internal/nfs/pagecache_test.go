package nfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

func newTestCache() (*pageCache, *metrics.Counter) {
	reg := metrics.NewRegistry()
	copied := reg.Counter("copied", "test")
	return newPageCache(true, copied, reg.Counter("sealed", "test")), copied
}

// noSums fills a cache the way a fetch without adoptable block sums does:
// the cache seals every block itself.
var noSums store.BlockSums

// wireSums is what a server's store sends with data read at off: the sums
// of the whole blocks from the first block boundary at or after off, block
// i salted salt0+i.
func wireSums(off int64, data []byte, salt0 uint64) store.BlockSums {
	sums := store.BlockSums{Salt0: salt0}
	for lo := (sumBlock - off%sumBlock) % sumBlock; lo+sumBlock <= int64(len(data)); lo += sumBlock {
		sums.Sums = append(sums.Sums, xdr.ChecksumSalted(salt0+uint64(len(sums.Sums)), data[lo:lo+sumBlock]))
	}
	return sums
}

// counted wraps b in a payload whose Release bumps n, standing in for a
// reply frame that must return to its pool exactly once.
func counted(b []byte, n *atomic.Int32) payload.Payload {
	return payload.RealPooled(b, func() { n.Add(1) })
}

func randBytes(rng *rand.Rand, n int64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// dropFrom opens a gap at off: it drops every cached byte at and beyond off,
// dirty or not, so that fills land on non-resident ranges again.
func dropFrom(pc *pageCache, off int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.resident = pc.resident.subtract(off, 1<<62)
	pc.dirty = pc.dirty.subtract(off, 1<<62)
	pc.carve(off, 1<<62)
}

// checkInvariants compares the cache's lists with the model's per-byte
// flags: segments sorted, disjoint and exactly covering the resident bytes
// (the model feeds no synthetic payloads, so there are no holes inside
// resident ranges), dirty ⊆ resident.
func checkInvariants(t *testing.T, pc *pageCache, resident, dirty []bool) {
	t.Helper()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	flags := func(l extList) []bool {
		out := make([]bool, len(resident))
		for _, e := range l {
			for i := e.Off; i < e.End; i++ {
				out[i] = true
			}
		}
		return out
	}
	gotRes, gotDirty := flags(pc.resident), flags(pc.dirty)
	covered := make([]bool, len(resident))
	prevEnd := int64(0)
	for _, s := range pc.segs {
		if s.off < prevEnd || len(s.data) == 0 {
			t.Fatalf("segment [%d,%d) overlaps or is empty (previous ends at %d)", s.off, s.end(), prevEnd)
		}
		prevEnd = s.end()
		for i := s.off; i < s.end(); i++ {
			covered[i] = true
		}
	}
	for i := range resident {
		if gotRes[i] != resident[i] || gotDirty[i] != dirty[i] || covered[i] != resident[i] {
			t.Fatalf("byte %d: resident %v/%v dirty %v/%v in-segment %v",
				i, gotRes[i], resident[i], gotDirty[i], dirty[i], covered[i])
		}
	}
}

// TestPageCacheModel drives random overlapping write/fill/drop/slice
// against a flat byte array with per-byte residency and dirty flags.  Every
// slice must read exactly the model's bytes — holes and ranges past the last
// segment as zeros — views kept across later operations must not change,
// and every adopted payload must be released exactly once by the end.
func TestPageCacheModel(t *testing.T) {
	const space = 3*sumBlock + 777
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pc, copied := newTestCache()
		model := make([]byte, space)
		resident := make([]bool, space)
		dirty := make([]bool, space)
		var fills, released atomic.Int32
		type held struct {
			p    payload.Payload
			want []byte
		}
		var views []held

		// Ranges are mostly small and unaligned, sometimes block-aligned and
		// large, so cuts land inside, on and across checksum-block edges.
		randRange := func() (off, n int64) {
			off = rng.Int63n(space)
			n = 1 + rng.Int63n(sumBlock+sumBlock/4)
			if rng.Intn(4) == 0 {
				off = off / sumBlock * sumBlock
				n = (1 + rng.Int63n(2)) * sumBlock
			}
			if off+n > space {
				n = space - off
			}
			return off, n
		}
		for step := 0; step < 300; step++ {
			off, n := randRange()
			switch op := rng.Intn(10); {
			case op < 3:
				data := randBytes(rng, n)
				before := copied.Value()
				pc.write(off, payload.Real(data))
				if got := copied.Value() - before; got != uint64(n) {
					t.Fatalf("seed %d step %d: write of %d bytes counted %d copied", seed, step, n, got)
				}
				copy(model[off:], data)
				for i := off; i < off+n; i++ {
					resident[i], dirty[i] = true, true
				}
			case op < 6:
				data := randBytes(rng, n)
				fills.Add(1)
				// Half the fills come with a server's sums, so cuts and
				// gathers meet adopted blocks as well as sealed ones.
				sums := noSums
				if rng.Intn(2) == 0 {
					sums = wireSums(off, data, rng.Uint64())
				}
				if !pc.fill(off, counted(data, &released), sums) {
					t.Fatalf("seed %d step %d: fill of undamaged bytes failed", seed, step)
				}
				for i := off; i < off+n; i++ {
					if !resident[i] { // resident bytes win over fetched ones
						model[i], resident[i] = data[i-off], true
					}
				}
			case op < 7:
				dropFrom(pc, off)
				for i := off; i < space; i++ {
					model[i], resident[i], dirty[i] = 0, false, false
				}
			default:
				inOne := false
				pc.mu.Lock()
				for _, s := range pc.segs {
					inOne = inOne || s.off <= off && off+n <= s.end()
				}
				pc.mu.Unlock()
				residentBytes := uint64(0)
				for i := off; i < off+n; i++ {
					if resident[i] {
						residentBytes++
					}
				}
				before := copied.Value()
				p, _ := pc.slice(off, n)
				if !bytes.Equal(p.Bytes, model[off:off+n]) {
					t.Fatalf("seed %d step %d: slice [%d,%d) differs from the model", seed, step, off, off+n)
				}
				// A range inside one segment is a view (nothing copied);
				// anything else gathers exactly its resident bytes.
				want := residentBytes
				if inOne {
					want = 0
				}
				if got := copied.Value() - before; got != want {
					t.Fatalf("seed %d step %d: slice [%d,%d) copied %d bytes, want %d (one segment: %v)",
						seed, step, off, off+n, got, want, inOne)
				}
				if rng.Intn(3) == 0 {
					views = append(views, held{p, bytes.Clone(p.Bytes)})
				} else {
					p.Release()
				}
			}
			if step%8 == 7 {
				checkInvariants(t, pc, resident, dirty)
			}
		}
		checkInvariants(t, pc, resident, dirty)
		pc.release()
		for i, v := range views {
			if !bytes.Equal(v.p.Bytes, v.want) {
				t.Fatalf("seed %d: view %d changed after it was handed out", seed, i)
			}
			v.p.Release()
		}
		if released.Load() != fills.Load() {
			t.Fatalf("seed %d: %d of %d adopted payloads released", seed, released.Load(), fills.Load())
		}
	}
}

// TestPageCacheViewIsSnapshot: a view taken before an overlapping write, a
// drop, or the cache's own release keeps reading the old bytes, and the cache
// serves the new ones.
func TestPageCacheViewIsSnapshot(t *testing.T) {
	pc, _ := newTestCache()
	old := bytes.Repeat([]byte("old-"), sumBlock/2) // two blocks
	var released atomic.Int32
	pc.fill(0, counted(old, &released), noSums)
	view, _ := pc.slice(100, 4096)
	if &view.Bytes[0] != &old[100] {
		t.Fatal("a range inside one segment was copied, not viewed")
	}
	flush, _ := pc.slice(0, int64(len(old))) // what flushAsync would queue

	pc.write(50, payload.Real(bytes.Repeat([]byte("NEW!"), 1024)))
	dropFrom(pc, 3000)
	got, _ := pc.slice(0, 3000)
	want := append(bytes.Clone(old[:50]), bytes.Repeat([]byte("NEW!"), 1024)...)
	if !bytes.Equal(got.Bytes, want[:3000]) {
		t.Fatal("the cache does not serve the overwritten bytes")
	}
	got.Release()
	pc.release()

	if !bytes.Equal(view.Bytes, old[100:100+4096]) || !bytes.Equal(flush.Bytes, old) {
		t.Fatal("a view changed under an overlapping write/drop/release")
	}
	if released.Load() != 0 {
		t.Fatal("the adopted payload was released while views still pin it")
	}
	view.Release()
	view.Release() // idempotent, like every payload release
	if released.Load() != 0 {
		t.Fatal("released with one view outstanding")
	}
	flush.Release()
	if released.Load() != 1 {
		t.Fatalf("adopted payload released %d times after the last view, want 1", released.Load())
	}
}

// TestPageCacheDuplicateFillLeaksNothing: a hedged or replica-fallback
// duplicate of a READ fills a range that is already resident.  The duplicate
// is released on the spot; a partial overlap keeps only its new bytes; every
// payload is released exactly once when the cache goes.
func TestPageCacheDuplicateFillLeaksNothing(t *testing.T) {
	pc, copied := newTestCache()
	var first, dup, partial atomic.Int32
	a := bytes.Repeat([]byte{0xAA}, 1000)
	pc.fill(0, counted(a, &first), noSums)
	pc.fill(0, counted(bytes.Repeat([]byte{0xBB}, 1000), &dup), noSums)
	if dup.Load() != 1 || first.Load() != 0 {
		t.Fatalf("duplicate fill: duplicate released %d times, original %d", dup.Load(), first.Load())
	}
	pc.fill(500, counted(bytes.Repeat([]byte{0xCC}, 1000), &partial), noSums)
	got, _ := pc.slice(0, 1500)
	want := append(bytes.Clone(a), bytes.Repeat([]byte{0xCC}, 500)...)
	if !bytes.Equal(got.Bytes, want) {
		t.Fatal("resident bytes did not win over a later fill")
	}
	got.Release()
	if partial.Load() != 0 {
		t.Fatal("partially adopted payload released while the cache holds its tail")
	}
	// A fill that lands on dirty bytes must not clobber them either.
	pc.write(2000, payload.Real([]byte("dirty")))
	pc.fill(1990, payload.Real(bytes.Repeat([]byte{0xDD}, 30)), noSums)
	got, _ = pc.slice(2000, 5)
	if string(got.Bytes) != "dirty" {
		t.Fatalf("fill overwrote dirty bytes: %q", got.Bytes)
	}
	got.Release()
	pc.release()
	if first.Load() != 1 || dup.Load() != 1 || partial.Load() != 1 {
		t.Fatalf("releases after the cache went: %d %d %d, want 1 each", first.Load(), dup.Load(), partial.Load())
	}
	if copied.Value() != 1500+5 { // the gather across two segments and the write; fills and views copy nothing
		t.Fatalf("copied %d bytes", copied.Value())
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not fail", what)
		}
	}()
	fn()
}

// TestPageCacheDetectsFlippedByte: the cache verifies what it serves.  A byte
// that changes inside a cached segment fails the view path, the gather path,
// and a cut that would otherwise re-seal the damaged block as valid.
func TestPageCacheDetectsFlippedByte(t *testing.T) {
	fresh := func() (*pageCache, []byte) {
		pc, _ := newTestCache()
		b := bytes.Repeat([]byte("good"), sumBlock) // four blocks
		pc.fill(0, payload.Real(b), noSums)
		pc.fill(int64(len(b)), payload.Real([]byte("next segment")), noSums)
		return pc, b
	}
	pc, b := fresh()
	if p, _ := pc.slice(0, int64(len(b))); !bytes.Equal(p.Bytes, b) {
		t.Fatal("clean read failed")
	}
	b[sumBlock+17] ^= 0x01

	mustPanic(t, "view of a damaged block", func() { pc.slice(sumBlock, 100) })
	mustPanic(t, "gather across a damaged block", func() { pc.slice(sumBlock+10, int64(len(b))) })
	if p, _ := pc.slice(2*sumBlock, sumBlock); !bytes.Equal(p.Bytes, b[2*sumBlock:3*sumBlock]) {
		t.Fatal("an undamaged block of the same segment no longer reads")
	}
	mustPanic(t, "overwrite that cuts a damaged block", func() {
		pc.write(sumBlock+100, payload.Real([]byte("x")))
	})
}

// TestPageCacheAdoptsWireSums: a fill takes over the sums a server sent for
// whole blocks — the decoded slice itself when they cover the segment — and
// seals only the edge blocks, under the salts the sums came with.  The
// adopted sums stay unchecked until the first slice that touches them.
func TestPageCacheAdoptsWireSums(t *testing.T) {
	pc, _ := newTestCache()
	data := randBytes(rand.New(rand.NewSource(1)), 3*sumBlock)
	off := int64(sumBlock / 2) // partial head, two whole blocks, partial tail
	if !pc.fill(off, payload.Real(data), wireSums(off, data, 7<<32|5)) {
		t.Fatal("fill failed")
	}
	if got := pc.sealed.Value(); got != sumBlock {
		t.Fatalf("sealed %d bytes, want the two half blocks at the edges (%d)", got, sumBlock)
	}
	s := pc.segs[0]
	if s.salt != 7<<32|4 || s.wire.Load() != 0b0110 {
		t.Fatalf("segment salt %#x, unchecked blocks %b; want %#x and 0110", s.salt, s.wire.Load(), 7<<32|4)
	}
	if p, ok := pc.slice(off, int64(len(data))); !ok || !bytes.Equal(p.Bytes, data) {
		t.Fatal("slice of the adopted segment")
	}
	if s.wire.Load() != 0 {
		t.Fatalf("blocks %b still unchecked after a slice over all of them", s.wire.Load())
	}

	// Whole blocks only: nothing sealed, and the reply's sums slice is the
	// segment's (no allocation for the sums on the READ path).
	sums := wireSums(4*sumBlock, data[:2*sumBlock], 99)
	pc.fill(4*sumBlock, payload.Real(data[:2*sumBlock]), sums)
	if got := pc.sealed.Value(); got != sumBlock {
		t.Fatalf("an aligned whole-block fill sealed %d bytes", got-sumBlock)
	}
	if &pc.segs[1].sums[0] != &sums.Sums[0] {
		t.Fatal("the segment copied the server's sums instead of taking them over")
	}
}

// TestPageCacheCutKeepsAdoptedSums: an overwrite inside an adopted segment
// cuts it; the shortened edge block is verified and re-sealed, the interior
// blocks keep their unchecked server sums — so damage in one of them is
// still a soft failure, which drops that cut and nothing else.
func TestPageCacheCutKeepsAdoptedSums(t *testing.T) {
	pc, _ := newTestCache()
	data := randBytes(rand.New(rand.NewSource(2)), 4*sumBlock)
	pc.fill(0, payload.Real(data), wireSums(0, data, 1000))
	if pc.sealed.Value() != 0 {
		t.Fatal("aligned fill sealed bytes")
	}
	pc.write(sumBlock+100, payload.Real([]byte("0123456789")))
	sealedByCut := int64(pc.sealed.Value()) - 10 // the write seals its own 10 bytes
	if sealedByCut != sumBlock-10 {
		t.Fatalf("cuts re-sealed %d bytes, want the two pieces of block 1 (%d)", sealedByCut, sumBlock-10)
	}
	head, tail := pc.segs[0], pc.segs[2]
	if head.wire.Load() != 0b01 || tail.wire.Load() != 0b110 || tail.salt != 1001 {
		t.Fatalf("cut pieces: unchecked %b and %b, tail salt %d; want 01, 110, 1001", head.wire.Load(), tail.wire.Load(), tail.salt)
	}
	want := bytes.Clone(data)
	copy(want[sumBlock+100:], "0123456789")

	data[3*sumBlock+7] ^= 0x40 // damage in block 3, which no check has passed
	if _, ok := pc.slice(3*sumBlock, 100); ok {
		t.Fatal("a damaged adopted block was served")
	}
	if gaps := pc.missingResident(0, 4*sumBlock); len(gaps) != 1 || gaps[0] != (extent{sumBlock + 110, 4 * sumBlock}) {
		t.Fatalf("after the soft failure the non-resident ranges are %v, want only the damaged cut", gaps)
	}
	if p, ok := pc.slice(0, sumBlock+110); !ok || !bytes.Equal(p.Bytes, want[:sumBlock+110]) {
		t.Fatal("the undamaged cut and the written bytes no longer read")
	}
	data[3*sumBlock+7] ^= 0x40
	pc.fill(sumBlock+110, payload.Real(bytes.Clone(want[sumBlock+110:])), noSums)
	if p, ok := pc.slice(0, 4*sumBlock); !ok || !bytes.Equal(p.Bytes, want) {
		t.Fatal("refilled range")
	}
}

// TestPageCacheWireDamageIsSoft: bytes damaged after the server verified
// them fail their first check — in slice or in a cut — without a panic; the
// range is dropped, one refetch heals it, and from then on the block is
// trusted: damage in client RAM panics as before.
func TestPageCacheWireDamageIsSoft(t *testing.T) {
	good := randBytes(rand.New(rand.NewSource(3)), 2*sumBlock)
	damaged := func() []byte {
		b := bytes.Clone(good)
		b[sumBlock+3] ^= 0x01
		return b
	}
	pc, _ := newTestCache()
	sums := wireSums(0, good, 50)
	pc.fill(0, payload.Real(damaged()), sums)
	if _, ok := pc.slice(0, 2*sumBlock); ok {
		t.Fatal("damaged reply served")
	}
	if gaps := pc.missingResident(0, 2*sumBlock); len(gaps) != 1 || gaps[0] != (extent{0, 2 * sumBlock}) {
		t.Fatalf("damaged segment not dropped: missing %v", gaps)
	}
	pc.fill(0, payload.Real(bytes.Clone(good)), sums) // the refetch
	p, ok := pc.slice(0, 2*sumBlock)
	if !ok || !bytes.Equal(p.Bytes, good) {
		t.Fatal("refetched range")
	}
	p.Bytes[sumBlock+3] ^= 0x01 // the view aliases the cached bytes
	mustPanic(t, "damage to a block that passed its check", func() { pc.slice(sumBlock, 10) })

	// In a cut: the gap left by resident bytes cuts the new segment inside
	// the damaged block, whose check fails; the gap stays non-resident.
	pc, _ = newTestCache()
	pc.write(sumBlock, payload.Real([]byte("resident")))
	if pc.fill(0, payload.Real(damaged()), sums) {
		t.Fatal("fill cut a damaged block and reported success")
	}
	gaps := pc.missingResident(0, 2*sumBlock)
	if len(gaps) != 1 || gaps[0] != (extent{sumBlock + 8, 2 * sumBlock}) {
		t.Fatalf("missing %v after a fill whose cut hit the damage", gaps)
	}
}

// TestPageCacheDirtyDamagePanics: written bytes are sealed by the cache
// itself, so a change to them is client RAM going bad — fatal, on every
// path, as it always was.
func TestPageCacheDirtyDamagePanics(t *testing.T) {
	pc, _ := newTestCache()
	pc.write(0, payload.Real(bytes.Repeat([]byte("dirty"), sumBlock/2)))
	pc.segs[0].data[sumBlock+1] ^= 0x80
	mustPanic(t, "view of a damaged dirty block", func() { pc.slice(sumBlock, 10) })
	mustPanic(t, "gather across a damaged dirty block", func() { pc.slice(10, 2*sumBlock) })
	mustPanic(t, "overwrite cutting a damaged dirty block", func() { pc.write(sumBlock+5, payload.Real([]byte("x"))) })
}

// TestPageCacheConcurrent runs fills, writes, slices and a flusher's
// dirty-run/clean/slice cycle from real goroutines (the TCP mode's parallel
// extent fetches and write-back).  Every byte's value depends only on its
// offset, so whatever interleaving happens, every slice must read the
// pattern exactly; -race checks the locking.
func TestPageCacheConcurrent(t *testing.T) {
	const space = 4 * sumBlock
	pat := make([]byte, space)
	for i := range pat {
		pat[i] = byte(i*11 + i>>8)
	}
	pc, _ := newTestCache()
	pc.fill(0, payload.Real(bytes.Clone(pat)), noSums)

	var wg sync.WaitGroup
	var fills, released atomic.Int32
	errs := make(chan error, 16)
	worker := func(seed int64, fn func(rng *rand.Rand, off, n int64) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				off := rng.Int63n(space - 1)
				n := 1 + rng.Int63n(min(space-off, sumBlock+500))
				if err := fn(rng, off, n); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := int64(0); g < 2; g++ {
		worker(10+g, func(_ *rand.Rand, off, n int64) error {
			pc.write(off, payload.Real(pat[off:off+n]))
			return nil
		})
		worker(20+g, func(rng *rand.Rand, off, n int64) error {
			if rng.Intn(4) == 0 {
				dropFrom(pc, off) // opens a gap for the next fill
			}
			fills.Add(1)
			pc.fill(off, counted(bytes.Clone(pat[off:off+n]), &released), noSums)
			return nil
		})
		worker(30+g, func(_ *rand.Rand, off, n int64) error {
			// A reader establishes residency first, as Client.Read does.
			for _, gap := range pc.missingResident(off, off+n) {
				pc.fill(gap.Off, payload.Real(bytes.Clone(pat[gap.Off:gap.End])), noSums)
			}
			p, _ := pc.slice(off, n)
			defer p.Release()
			// A concurrent drop may have emptied part of the range
			// again: those bytes read as zeros, never as anything else.
			for i, b := range p.Bytes {
				if b != pat[off+int64(i)] && b != 0 {
					return fmt.Errorf("slice [%d,%d): byte %d is %#x, want %#x or a hole",
						off, off+n, off+int64(i), b, pat[off+int64(i)])
				}
			}
			return nil
		})
		worker(40+g, func(_ *rand.Rand, _, _ int64) error {
			run, ok := pc.firstDirty()
			if !ok {
				return nil
			}
			pc.clean(run.Off, run.End)
			p, _ := pc.slice(run.Off, run.len())
			p.Release()
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	pc.release()
	if released.Load() != fills.Load() {
		t.Fatalf("%d of %d adopted payloads released", released.Load(), fills.Load())
	}
}

// tcpMount serves a store-backed NFS server on a real loopback socket and
// mounts it with a real-bytes client in real-goroutine mode.  wrap, when
// non-nil, stands between the socket and the server's handler.
func tcpMount(t *testing.T, wrap func(rpc.Handler) rpc.Handler) (*Client, *StoreBackend) {
	t.Helper()
	back := NewStoreBackend(mem.New())
	srv := NewServer(ServerConfig{Backend: back})
	handle := rpc.Handler(srv.Handle)
	if wrap != nil {
		handle = wrap(handle)
	}
	ln, err := rpc.ListenTCP("127.0.0.1:0", Registry(), handle)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := rpc.DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		ln.Close()
	})
	c := NewClient(ClientConfig{MDS: conn, Real: true, Name: "tcp-client"})
	if err := c.Mount(&rpc.Ctx{}); err != nil {
		t.Fatal(err)
	}
	return c, back
}

// TestReadViewOutlivesCacheOverTCP follows one READ reply frame from the
// socket to the application.  The payload Client.Read returns is a view of
// the pooled frame itself (wire → pooled frame → cache segment → view): it
// must survive Close and DropCaches unpoisoned, and the frame must go back
// to the pool — poisoned, under SetPoisonOnPut — only at the last Release.
func TestReadViewOutlivesCacheOverTCP(t *testing.T) {
	prev := rpc.SetPoisonOnPut(true)
	defer rpc.SetPoisonOnPut(prev)
	c, back := tcpMount(t, nil)
	ctx := &rpc.Ctx{}

	// Content without 0xA5, so a poisoned byte is unmistakable.
	content := make([]byte, 3*sumBlock+123)
	for i := range content {
		content[i] = byte(i % 0xA0)
	}
	at, err := back.Store.Create(back.Store.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Store.WriteAt(at.ID, 0, content); err != nil {
		t.Fatal(err)
	}

	f, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(content))
	borrowedBefore, _ := rpc.BufCounters()
	p1, got, err := c.Read(ctx, f, 0, n)
	if err != nil || got != n {
		t.Fatalf("read: %d %v", got, err)
	}
	if borrowedAfter, _ := rpc.BufCounters(); borrowedAfter == borrowedBefore {
		t.Fatal("the reply was not borrow-decoded; nothing to follow")
	}
	p2, _, err := c.Read(ctx, f, sumBlock, 1000) // a second view, from the cache
	if err != nil {
		t.Fatal(err)
	}
	if c.pcCopied.Value() != 0 {
		t.Fatalf("aligned reads copied %d bytes in the page cache", c.pcCopied.Value())
	}
	if &p2.Bytes[0] != &p1.Bytes[sumBlock] {
		t.Fatal("two reads of one cached extent do not share the frame")
	}

	if err := c.Close(ctx, f); err != nil {
		t.Fatal(err)
	}
	c.DropCaches() // the cache's own reference goes; only the views pin the frame
	if !bytes.Equal(p1.Bytes, content) {
		t.Fatal("read payload damaged by Close + DropCaches")
	}
	alias := p1.Bytes
	p1.Release()
	if !bytes.Equal(alias, content) || !bytes.Equal(p2.Bytes, content[sumBlock:sumBlock+1000]) {
		t.Fatal("frame recycled while a second view still holds it")
	}
	p2.Release()
	for i, b := range alias {
		if b != 0xA5 {
			t.Fatalf("byte %d of the frame is %#x after the last Release: the frame was never recycled", i, b)
		}
	}
}

// TestInFlightDamageHealedOverTCP: with wire checksums off, a READ payload
// byte damaged after the server's store verified it — here in the reply the
// server hands the socket — is caught by the block sums the reply carries
// and healed by one re-read: the application gets the stored bytes, and the
// client counts one corrupt read.  Before block sums travelled with READ
// data the client sealed the damaged bytes into its cache and served them.
func TestInFlightDamageHealedOverTCP(t *testing.T) {
	var flipped atomic.Int32
	c, back := tcpMount(t, func(h rpc.Handler) rpc.Handler {
		return func(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
			rep, status := h(ctx, proc, req)
			if cr, ok := rep.(*CompoundRep); ok {
				for _, r := range cr.Results {
					if rr, ok := r.(*ResRead); ok && len(rr.Data.Bytes) > sumBlock && flipped.Add(1) == 1 {
						rr.Data.Bytes[sumBlock+9] ^= 0x04 // once: the re-read goes through clean
					}
				}
			}
			return rep, status
		}
	})
	ctx := &rpc.Ctx{}
	content := randBytes(rand.New(rand.NewSource(4)), 3*sumBlock+123)
	at, err := back.Store.Create(back.Store.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Store.WriteAt(at.ID, 0, content); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	p, n, err := c.Read(ctx, f, 0, int64(len(content)))
	if err != nil || n != int64(len(content)) {
		t.Fatalf("read: %d bytes, %v", n, err)
	}
	if !bytes.Equal(p.Bytes, content) {
		t.Fatal("the read returned the bytes damaged in flight")
	}
	p.Release()
	if flipped.Load() != 2 || c.corruptReads.Value() != 1 {
		t.Fatalf("%d READ replies, %d corrupt reads; want the damaged one and one re-read, one corrupt read",
			flipped.Load(), c.corruptReads.Value())
	}
}

// TestFlushHandsOverAlignedBlocks pins what a flush verifies itself.  An
// aligned WSize run hands every one of its blocks' sums to the WRITE and
// verifies none of them here: damage under a whole block does not trip the
// cache, and the sums it hands over are the ones sealed before the damage,
// so the server's store refuses the bytes.  A run that starts and ends
// mid-block hands over its whole blocks and still verifies the partial
// edges, which no sum on the wire covers.
func TestFlushHandsOverAlignedBlocks(t *testing.T) {
	const wsize = 2 << 20
	pc, _ := newTestCache()
	content := randBytes(rand.New(rand.NewSource(37)), wsize)
	pc.write(wsize, payload.Real(content))
	pc.segs[0].data[5*sumBlock+3] ^= 0x40
	data, sums, ok := pc.sliceWith(wsize, wsize, true)
	if !ok {
		t.Fatal("flush of a dirty run failed softly")
	}
	if len(sums.Sums) != wsize/sumBlock || sums.Salt0 != wsize/sumBlock {
		t.Fatalf("aligned flush handed over %d sums from salt %d, want %d from %d",
			len(sums.Sums), sums.Salt0, wsize/sumBlock, wsize/sumBlock)
	}
	if err := store.CheckSums(wsize, data.Bytes, sums); err != store.ErrCorrupt {
		t.Fatalf("the handed-over sums check the damaged bytes with %v, want ErrCorrupt", err)
	}
	data.Release()

	pc, _ = newTestCache()
	pc.write(100, payload.Real(content[:3*sumBlock]))
	data, sums, ok = pc.sliceWith(100, 3*sumBlock, true)
	if !ok || len(sums.Sums) != 2 || sums.Salt0 != 1 || store.CheckSums(100, data.Bytes, sums) != nil {
		t.Fatalf("mid-block run: ok %v, %d sums from salt %d; want 2 from 1 that check", ok, len(sums.Sums), sums.Salt0)
	}
	for _, at := range []int{50, 3*sumBlock - 10} { // in the head and tail partial blocks
		pc.segs[0].data[at] ^= 0x01
		mustPanic(t, fmt.Sprintf("flush over a damaged edge byte %d", at), func() { pc.sliceWith(100, 3*sumBlock, true) })
		pc.segs[0].data[at] ^= 0x01
	}

	// Gathering across write segments: the run goes on while the segments'
	// blocks follow each other, and the rest is verified here.
	pc, _ = newTestCache()
	pc.write(0, payload.Real(content[:2*sumBlock]))
	pc.write(2*sumBlock, payload.Real(content[2*sumBlock:3*sumBlock+7]))
	pc.write(3*sumBlock+7, payload.Real(content[3*sumBlock+7:5*sumBlock]))
	data, sums, ok = pc.sliceWith(0, 5*sumBlock, true)
	if !ok || len(sums.Sums) != 3 || sums.Salt0 != 0 || store.CheckSums(0, data.Bytes, sums) != nil ||
		!bytes.Equal(data.Bytes, content[:5*sumBlock]) {
		t.Fatalf("gathered run: ok %v, %d sums from salt %d; want the 3 before the straddled block", ok, len(sums.Sums), sums.Salt0)
	}
	pc.segs[2].data[sumBlock] ^= 0x01 // block 4, after the run broke
	mustPanic(t, "gather past the end of the run", func() { pc.sliceWith(0, 5*sumBlock, true) })
}

// recordWrites wraps a server handler so that every decoded WRITE goes
// through fn before the server runs it.
func recordWrites(fn func(*OpWrite)) func(rpc.Handler) rpc.Handler {
	return func(h rpc.Handler) rpc.Handler {
		return func(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
			if args, ok := req.(*CompoundArgs); ok {
				for _, op := range args.Ops {
					if w, ok := op.(*OpWrite); ok {
						fn(w)
					}
				}
			}
			return h(ctx, proc, req)
		}
	}
}

// TestWriteCarriesBlockSumsOverTCP: every WSize flush of an aligned write
// reaches the server with one sum per block, salted by file block, and
// nothing the store refused.
func TestWriteCarriesBlockSumsOverTCP(t *testing.T) {
	var mu sync.Mutex
	var got []store.BlockSums
	c, back := tcpMount(t, recordWrites(func(w *OpWrite) {
		mu.Lock()
		got = append(got, w.Blocks)
		mu.Unlock()
	}))
	ctx := &rpc.Ctx{}
	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	wsize := c.cfg.WSize
	content := randBytes(rand.New(rand.NewSource(5)), 3*wsize)
	if err := c.Write(ctx, f, 0, payload.Real(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(ctx, f); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d WRITEs, want 3", len(got))
	}
	salts := map[uint64]bool{}
	for _, sums := range got {
		if len(sums.Sums) != int(wsize/sumBlock) {
			t.Fatalf("a WSize WRITE carried %d sums, want %d", len(sums.Sums), wsize/sumBlock)
		}
		salts[sums.Salt0] = true
	}
	for k := range int64(3) {
		if !salts[uint64(k*wsize/sumBlock)] {
			t.Fatalf("no WRITE carried the sums from file block %d (got %v)", k*wsize/sumBlock, salts)
		}
	}
	at, _ := back.Store.LookupPath("/f")
	stored := make([]byte, len(content))
	if n, err := back.Store.ReadAt(at.ID, 0, stored); err != nil || n != len(content) || !bytes.Equal(stored, content) {
		t.Fatalf("stored %d bytes (%v), content match %v", n, err, bytes.Equal(stored, content))
	}
}

// TestWriteDamageInFlightHealedOverTCP: a WRITE payload byte damaged after
// the client sealed it — here in the request the server decoded — fails the
// sums the WRITE carries, so the store refuses it; the client finds the
// bytes it sent still match its sums and sends them again.  Before sums
// travelled with WRITE data the store sealed the damaged bytes as good.
func TestWriteDamageInFlightHealedOverTCP(t *testing.T) {
	var writes atomic.Int32
	c, back := tcpMount(t, recordWrites(func(w *OpWrite) {
		if writes.Add(1) == 1 && len(w.Data.Bytes) > sumBlock {
			w.Data.Bytes[sumBlock+9] ^= 0x04 // once: the re-send goes through clean
		}
	}))
	ctx := &rpc.Ctx{}
	f, err := c.Create(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(rand.New(rand.NewSource(6)), 3*sumBlock+123)
	if err := c.Write(ctx, f, 0, payload.Real(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(ctx, f); err != nil {
		t.Fatal(err)
	}
	at, _ := back.Store.LookupPath("/f")
	stored := make([]byte, len(content))
	if n, err := back.Store.ReadAt(at.ID, 0, stored); err != nil || n != len(content) || !bytes.Equal(stored, content) {
		t.Fatalf("stored %d bytes (%v); the bytes damaged in flight were stored: %v", n, err, !bytes.Equal(stored, content))
	}
	if writes.Load() != 2 {
		t.Fatalf("%d WRITEs, want the damaged one and one re-send", writes.Load())
	}
}

// TestDirtyDamageBeforeFlushPanicsOverTCP: a whole block the cache sealed
// and then saw change is no longer verified by the flush — its sum goes to
// the server instead, whose store refuses the bytes.  The client then finds
// the bytes it sent do not match the sums it sent: client memory changed, as
// fatal as before, and the store keeps the old bytes.
func TestDirtyDamageBeforeFlushPanicsOverTCP(t *testing.T) {
	var writes atomic.Int32
	c, back := tcpMount(t, recordWrites(func(*OpWrite) { writes.Add(1) }))
	ctx := &rpc.Ctx{}
	old := bytes.Repeat([]byte("old!"), sumBlock/2) // two blocks
	at, err := back.Store.Create(back.Store.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Store.WriteAt(at.ID, 0, old); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(ctx, f, 0, payload.Real(bytes.Repeat([]byte("new!"), sumBlock/2))); err != nil {
		t.Fatal(err)
	}
	f.cache.segs[0].data[sumBlock+77] ^= 0x20
	// A lone dirty run of at most WSize goes out FILE_SYNC on the caller's
	// flow, so the panic surfaces here.
	mustPanic(t, "flush of a damaged dirty block", func() { c.Fsync(ctx, f) })
	stored := make([]byte, len(old))
	if _, err := back.Store.ReadAt(at.ID, 0, stored); err != nil || !bytes.Equal(stored, old) {
		t.Fatalf("the store took bytes that failed their sums (%v)", err)
	}
	if writes.Load() != 1 {
		t.Fatalf("%d WRITEs, want the refused one only", writes.Load())
	}
}
