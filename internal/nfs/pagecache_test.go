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
	"dpnfs/internal/store/mem"
)

func newTestCache() (*pageCache, *metrics.Counter) {
	copied := metrics.NewRegistry().Counter("copied", "test")
	return newPageCache(true, copied), copied
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

// TestPageCacheModel drives random overlapping write/fill/truncate/slice
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
				pc.fill(off, counted(data, &released))
				for i := off; i < off+n; i++ {
					if !resident[i] { // resident bytes win over fetched ones
						model[i], resident[i] = data[i-off], true
					}
				}
			case op < 7:
				pc.truncate(off)
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
				p := pc.slice(off, n)
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

// TestPageCacheViewIsSnapshot: a view taken before an overlapping write,
// truncate, or the cache's own release keeps reading the old bytes, and the
// cache serves the new ones.
func TestPageCacheViewIsSnapshot(t *testing.T) {
	pc, _ := newTestCache()
	old := bytes.Repeat([]byte("old-"), sumBlock/2) // two blocks
	var released atomic.Int32
	pc.fill(0, counted(old, &released))
	view := pc.slice(100, 4096)
	if &view.Bytes[0] != &old[100] {
		t.Fatal("a range inside one segment was copied, not viewed")
	}
	flush := pc.slice(0, int64(len(old))) // what flushAsync would queue

	pc.write(50, payload.Real(bytes.Repeat([]byte("NEW!"), 1024)))
	pc.truncate(3000)
	got := pc.slice(0, 3000)
	want := append(bytes.Clone(old[:50]), bytes.Repeat([]byte("NEW!"), 1024)...)
	if !bytes.Equal(got.Bytes, want[:3000]) {
		t.Fatal("the cache does not serve the overwritten bytes")
	}
	got.Release()
	pc.release()

	if !bytes.Equal(view.Bytes, old[100:100+4096]) || !bytes.Equal(flush.Bytes, old) {
		t.Fatal("a view changed under an overlapping write/truncate/release")
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
	pc.fill(0, counted(a, &first))
	pc.fill(0, counted(bytes.Repeat([]byte{0xBB}, 1000), &dup))
	if dup.Load() != 1 || first.Load() != 0 {
		t.Fatalf("duplicate fill: duplicate released %d times, original %d", dup.Load(), first.Load())
	}
	pc.fill(500, counted(bytes.Repeat([]byte{0xCC}, 1000), &partial))
	got := pc.slice(0, 1500)
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
	pc.fill(1990, payload.Real(bytes.Repeat([]byte{0xDD}, 30)))
	got = pc.slice(2000, 5)
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
		pc.fill(0, payload.Real(b))
		pc.fill(int64(len(b)), payload.Real([]byte("next segment")))
		return pc, b
	}
	pc, b := fresh()
	if p := pc.slice(0, int64(len(b))); !bytes.Equal(p.Bytes, b) {
		t.Fatal("clean read failed")
	}
	b[sumBlock+17] ^= 0x01

	mustPanic(t, "view of a damaged block", func() { pc.slice(sumBlock, 100) })
	mustPanic(t, "gather across a damaged block", func() { pc.slice(sumBlock+10, int64(len(b))) })
	if p := pc.slice(2*sumBlock, sumBlock); !bytes.Equal(p.Bytes, b[2*sumBlock:3*sumBlock]) {
		t.Fatal("an undamaged block of the same segment no longer reads")
	}
	mustPanic(t, "overwrite that cuts a damaged block", func() {
		pc.write(sumBlock+100, payload.Real([]byte("x")))
	})
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
	pc.fill(0, payload.Real(bytes.Clone(pat)))

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
				pc.truncate(off) // opens a gap for the next fill
			}
			fills.Add(1)
			pc.fill(off, counted(bytes.Clone(pat[off:off+n]), &released))
			return nil
		})
		worker(30+g, func(_ *rand.Rand, off, n int64) error {
			// A reader establishes residency first, as Client.Read does.
			for _, gap := range pc.missingResident(off, off+n) {
				pc.fill(gap.Off, payload.Real(bytes.Clone(pat[gap.Off:gap.End])))
			}
			p := pc.slice(off, n)
			defer p.Release()
			// A concurrent truncate may have dropped part of the range
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
			p := pc.slice(run.Off, run.len())
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
// mounts it with a real-bytes client in real-goroutine mode.
func tcpMount(t *testing.T) (*Client, *StoreBackend) {
	t.Helper()
	back := NewStoreBackend(mem.New(), nil)
	srv := NewServer(ServerConfig{Backend: back})
	ln, err := rpc.ListenTCP("127.0.0.1:0", Registry(), srv.Handle)
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
	c, back := tcpMount(t)
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
