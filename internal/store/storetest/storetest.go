// Package storetest is the backend conformance suite: every store.Store
// implementation must pass Run, and every store.Recoverable must also pass
// RunRecoverable.  The suite pins the semantic corners the protocols rely
// on — rename-over-existing, sparse reads beyond EOF, truncate-then-read,
// open-but-unlinked ids, concurrent writers under -race — so that mem and
// wal agree byte-for-byte and a backend swap never changes observable
// behaviour.
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// Factory builds a fresh, empty store for one subtest.
type Factory func(t *testing.T) store.Store

// Run drives the conformance suite against stores built by mk.
func Run(t *testing.T, mk Factory) {
	t.Run("CreateLookup", func(t *testing.T) {
		s := mk(t)
		a, err := s.Create(s.Root(), "f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Lookup(s.Root(), "f")
		if err != nil || got.ID != a.ID || got.IsDir {
			t.Fatalf("lookup: %+v, %v", got, err)
		}
		if _, err := s.Create(s.Root(), "f"); err != store.ErrExist {
			t.Fatalf("duplicate create: %v, want ErrExist", err)
		}
		if _, err := s.Lookup(s.Root(), "missing"); err != store.ErrNotExist {
			t.Fatalf("missing lookup: %v, want ErrNotExist", err)
		}
	})

	t.Run("RenameOverExisting", func(t *testing.T) {
		s := mk(t)
		a, _ := s.Create(s.Root(), "a")
		if _, err := s.WriteAt(a.ID, 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		b, _ := s.Create(s.Root(), "b")
		if err := s.Rename(s.Root(), "a", s.Root(), "b"); err != nil {
			t.Fatal(err)
		}
		got, err := s.Lookup(s.Root(), "b")
		if err != nil || got.ID != a.ID {
			t.Fatalf("target after rename: %+v, %v", got, err)
		}
		if _, err := s.Lookup(s.Root(), "a"); err != store.ErrNotExist {
			t.Fatalf("source after rename: %v", err)
		}
		// The displaced inode stays addressable (open-but-unlinked).
		if _, err := s.GetAttr(b.ID); err != nil {
			t.Fatalf("displaced inode: %v", err)
		}
		buf := make([]byte, 7)
		if n, err := s.ReadAt(a.ID, 0, buf); err != nil || string(buf[:n]) != "payload" {
			t.Fatalf("payload after rename: %q, %v", buf[:n], err)
		}
	})

	t.Run("RenameOverNonEmptyDir", func(t *testing.T) {
		s := mk(t)
		s.Mkdir(s.Root(), "src")
		d, _ := s.Mkdir(s.Root(), "dst")
		s.Create(d.ID, "occupant")
		if err := s.Rename(s.Root(), "src", s.Root(), "dst"); err != store.ErrNotEmpty {
			t.Fatalf("rename over non-empty dir: %v, want ErrNotEmpty", err)
		}
		// Kind mismatches are refused either way.
		s.Create(s.Root(), "file")
		if err := s.Rename(s.Root(), "file", s.Root(), "dst"); err != store.ErrIsDir {
			t.Fatalf("file over dir: %v, want ErrIsDir", err)
		}
		if err := s.Rename(s.Root(), "src", s.Root(), "file"); err != store.ErrNotDir {
			t.Fatalf("dir over file: %v, want ErrNotDir", err)
		}
	})

	t.Run("RenameSelfAndCycle", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Create(s.Root(), "f")
		if err := s.Rename(s.Root(), "f", s.Root(), "f"); err != nil {
			t.Fatalf("self rename: %v", err)
		}
		if got, err := s.Lookup(s.Root(), "f"); err != nil || got.ID != f.ID {
			t.Fatalf("file lost by self rename: %+v, %v", got, err)
		}
		a, _ := s.Mkdir(s.Root(), "a")
		b, _ := s.Mkdir(a.ID, "b")
		if err := s.Rename(s.Root(), "a", b.ID, "a2"); err != store.ErrInval {
			t.Fatalf("cycle rename: %v, want ErrInval", err)
		}
	})

	t.Run("SparseReadBeyondEOF", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Create(s.Root(), "f")
		if _, err := s.WriteAt(f.ID, 1<<20, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		// The hole reads as zeros.
		buf := make([]byte, 64)
		if n, err := s.ReadAt(f.ID, 1000, buf); err != nil || n != 64 || !bytes.Equal(buf, make([]byte, 64)) {
			t.Fatalf("hole read: %d %v %v", n, buf, err)
		}
		// Reads at and past EOF are empty, not errors.
		if n, err := s.ReadAt(f.ID, 1<<20+4, buf); err != nil || n != 0 {
			t.Fatalf("read at EOF: %d, %v", n, err)
		}
		if n, err := s.ReadAt(f.ID, 1<<30, buf); err != nil || n != 0 {
			t.Fatalf("read past EOF: %d, %v", n, err)
		}
		// A read straddling EOF is short.
		if n, err := s.ReadAt(f.ID, 1<<20+2, buf); err != nil || n != 2 || string(buf[:n]) != "il" {
			t.Fatalf("straddling read: %d %q %v", n, buf[:n], err)
		}
	})

	t.Run("TruncateThenRead", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Create(s.Root(), "f")
		s.WriteAt(f.ID, 0, []byte("abcdef"))
		if err := s.Truncate(f.ID, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.Truncate(f.ID, 6); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 6)
		n, err := s.ReadAt(f.ID, 0, buf)
		if err != nil || n != 6 || !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0}) {
			t.Fatalf("truncate leaked data: %q (%d), %v", buf[:n], n, err)
		}
		at, _ := s.GetAttr(f.ID)
		if at.Size != 6 {
			t.Fatalf("size %d, want 6", at.Size)
		}
	})

	t.Run("RemoveOpenUnlinked", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Create(s.Root(), "f")
		s.WriteAt(f.ID, 0, []byte("still here"))
		if err := s.Remove(s.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		// The id stays addressable for readers and writers holding it open.
		buf := make([]byte, 10)
		if n, err := s.ReadAt(f.ID, 0, buf); err != nil || string(buf[:n]) != "still here" {
			t.Fatalf("unlinked read: %q, %v", buf[:n], err)
		}
		if _, err := s.WriteAt(f.ID, 10, []byte("!")); err != nil {
			t.Fatalf("unlinked write: %v", err)
		}
		if _, err := s.Lookup(s.Root(), "f"); err != store.ErrNotExist {
			t.Fatalf("unlinked still visible: %v", err)
		}
	})

	t.Run("RemoveSemantics", func(t *testing.T) {
		s := mk(t)
		d, _ := s.Mkdir(s.Root(), "d")
		s.Create(d.ID, "f")
		if err := s.Remove(s.Root(), "d"); err != store.ErrNotEmpty {
			t.Fatalf("remove non-empty dir: %v", err)
		}
		s.Remove(d.ID, "f")
		if err := s.Remove(s.Root(), "d"); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(s.Root(), "d"); err != store.ErrNotExist {
			t.Fatalf("double remove: %v", err)
		}
	})

	t.Run("SyntheticSizes", func(t *testing.T) {
		s := mk(t)
		f, _ := s.Create(s.Root(), "f")
		size, err := s.WriteSyntheticAt(f.ID, 0, 1<<20)
		if err != nil || size != 1<<20 {
			t.Fatalf("synthetic write: %d, %v", size, err)
		}
		buf := make([]byte, 16)
		if n, err := s.ReadAt(f.ID, 1000, buf); err != nil || n != 16 || !bytes.Equal(buf, make([]byte, 16)) {
			t.Fatalf("synthetic bytes: %d %v %v", n, buf, err)
		}
		if err := s.SetSize(f.ID, 1<<19); err != nil {
			t.Fatal(err)
		}
		if at, _ := s.GetAttr(f.ID); at.Size != 1<<20 {
			t.Fatalf("SetSize shrank: %d", at.Size)
		}
	})

	t.Run("ReadDirOrder", func(t *testing.T) {
		s := mk(t)
		for _, n := range []string{"c", "a", "b"} {
			s.Create(s.Root(), n)
		}
		names, err := s.ReadDir(s.Root())
		if err != nil || strings.Join(names, ",") != "a,b,c" {
			t.Fatalf("readdir: %v, %v", names, err)
		}
	})

	t.Run("ConcurrentWriters", func(t *testing.T) {
		s := mk(t)
		const writers, blocks = 4, 16
		ids := make([]store.FileID, writers)
		for i := range ids {
			a, err := s.Create(s.Root(), fmt.Sprintf("w%d", i))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = a.ID
		}
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				payload := bytes.Repeat([]byte{byte('A' + i)}, 1024)
				for j := 0; j < blocks; j++ {
					if _, err := s.WriteAt(ids[i], int64(j)*1024, payload); err != nil {
						t.Errorf("writer %d: %v", i, err)
						return
					}
					if err := s.Sync(nil); err != nil {
						t.Errorf("writer %d sync: %v", i, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < writers; i++ {
			want := bytes.Repeat([]byte{byte('A' + i)}, blocks*1024)
			got := make([]byte, len(want))
			if n, err := s.ReadAt(ids[i], 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("writer %d read back: n=%d, %v", i, n, err)
			}
		}
	})
}

// RunCorruptible drives the data-integrity contract every shipped backend
// honours: injected corruption is never served as wrong bytes — reads fail
// with the typed store.ErrCorrupt — and a legitimate full-chunk rewrite
// reseals the block checksum, which is exactly what read-repair and the
// scrubber rely on.
func RunCorruptible(t *testing.T, mk Factory) {
	corr := func(t *testing.T, s store.Store) store.Corruptible {
		t.Helper()
		c, ok := s.(store.Corruptible)
		if !ok {
			t.Fatalf("%T does not implement store.Corruptible", s)
		}
		return c
	}
	// Two 64 KiB chunks of a non-zero pattern: enough materialized state
	// for both the bit-rot victim walk and the misdirect donor rule.
	const chunk = 64 << 10
	pattern := func() []byte {
		b := make([]byte, 2*chunk)
		for i := range b {
			b[i] = byte(i/997 + 13)
		}
		return b
	}

	t.Run("BitRotReadsTyped", func(t *testing.T) {
		s := mk(t)
		c := corr(t, s)
		want := pattern()
		f, _ := s.Create(s.Root(), "f")
		if _, err := s.WriteAt(f.ID, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		if !c.CorruptChunk(7) {
			t.Fatal("CorruptChunk found nothing to rot (vacuous)")
		}
		buf := make([]byte, len(want))
		if _, err := s.ReadAt(f.ID, 0, buf); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("read of rotted file: %v, want ErrCorrupt", err)
		}
		// Repair is an ordinary full overwrite: the write reseals the
		// checksums, after which reads are clean and byte-identical.
		if _, err := s.WriteAt(f.ID, 0, want); err != nil {
			t.Fatalf("repair write: %v", err)
		}
		n, err := s.ReadAt(f.ID, 0, buf)
		if err != nil || n != len(want) || !bytes.Equal(buf, want) {
			t.Fatalf("read after repair: n=%d, %v", n, err)
		}
	})

	t.Run("MisdirectedReadOneShot", func(t *testing.T) {
		s := mk(t)
		c := corr(t, s)
		want := pattern()
		f, _ := s.Create(s.Root(), "f")
		if _, err := s.WriteAt(f.ID, 0, want); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		if !c.MisdirectNextRead(3) {
			t.Fatal("MisdirectNextRead found no victim (vacuous)")
		}
		// The wrong block arrives under the right block's location-salted
		// checksum, so it must surface as ErrCorrupt — never as silently
		// transposed bytes.
		buf := make([]byte, len(want))
		if _, err := s.ReadAt(f.ID, 0, buf); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("misdirected read: %v, want ErrCorrupt", err)
		}
		// One-shot: the stored bytes were never damaged, so the retry that
		// the clients' bounded integrity-retry policy issues succeeds.
		n, err := s.ReadAt(f.ID, 0, buf)
		if err != nil || n != len(want) || !bytes.Equal(buf, want) {
			t.Fatalf("read after misdirect consumed: n=%d, %v", n, err)
		}
	})

	t.Run("SyntheticOnlyHasNothingToRot", func(t *testing.T) {
		s := mk(t)
		c := corr(t, s)
		f, _ := s.Create(s.Root(), "f")
		if _, err := s.WriteSyntheticAt(f.ID, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if c.CorruptChunk(1) {
			t.Fatal("CorruptChunk rotted a store with no materialized bytes")
		}
		if c.MisdirectNextRead(1) {
			t.Fatal("MisdirectNextRead armed without a two-chunk victim")
		}
	})
}

// RunSummedRead drives the store.SummedReader contract: a summed read returns
// exactly ReadAt's bytes, plus one sum per whole chunk from the first chunk
// boundary at or after the offset up to the first hole or partial chunk,
// sum i being xdr.ChecksumSalted(Salt0+i, chunk i of the returned bytes);
// an injected corruption fails the read with store.ErrCorrupt and no sums.
func RunSummedRead(t *testing.T, mk Factory) {
	const chunk = store.ChunkSize
	summed := func(t *testing.T, s store.Store) store.SummedReader {
		t.Helper()
		sr, ok := s.(store.SummedReader)
		if !ok {
			t.Fatalf("%T does not implement store.SummedReader", s)
		}
		return sr
	}
	// Chunks 0, 1 and 3 hold bytes, chunk 2 is a hole, and the file ends
	// 100 bytes into chunk 4.
	const size = 4*chunk + 100
	populate := func(t *testing.T, s store.Store) (store.FileID, []byte) {
		t.Helper()
		want := make([]byte, size)
		for i := range want {
			if i/chunk != 2 {
				want[i] = byte(i/991 + 1)
			}
		}
		f, _ := s.Create(s.Root(), "f")
		for _, ext := range [][2]int{{0, 2 * chunk}, {3 * chunk, size}} {
			if _, err := s.WriteAt(f.ID, int64(ext[0]), want[ext[0]:ext[1]]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		return f.ID, want
	}

	t.Run("SumsCoverWholeChunks", func(t *testing.T) {
		s := mk(t)
		sr := summed(t, s)
		id, want := populate(t, s)
		var salt0 uint64 // of chunk 0, from the first case
		for _, c := range []struct {
			name     string
			off, n   int
			first    int // index of the first summed chunk
			wantSums int
		}{
			{"from zero, stops at the hole", 0, size, 0, 2},
			{"mid-chunk start skips the partial head", chunk / 2, 2 * chunk, 1, 1},
			{"whole chunk then the partial tail", 3 * chunk, size - 3*chunk, 3, 1},
			{"starting at the hole", 2 * chunk, 2 * chunk, 0, 0},
			{"inside one chunk", 10, 1000, 0, 0},
			{"second chunk alone", chunk, chunk, 1, 1},
		} {
			buf := make([]byte, c.n)
			n, sums, err := sr.ReadSummedAt(id, int64(c.off), buf)
			if err != nil || n != c.n || !bytes.Equal(buf, want[c.off:c.off+c.n]) {
				t.Fatalf("%s: %d bytes, %v, content match %v", c.name, n, err, bytes.Equal(buf, want[c.off:c.off+c.n]))
			}
			if len(sums.Sums) != c.wantSums {
				t.Fatalf("%s: %d sums, want %d", c.name, len(sums.Sums), c.wantSums)
			}
			head := (c.first*chunk - c.off + chunk) % chunk // bytes before the first summed chunk
			for i, sum := range sums.Sums {
				lo := head + i*chunk
				if got := xdr.ChecksumSalted(sums.Salt0+uint64(i), buf[lo:lo+chunk]); got != sum {
					t.Fatalf("%s: sum %d is %#x, the returned bytes sum to %#x", c.name, i, sum, got)
				}
			}
			// Salts are per location: chunk k is salted salt0(chunk 0)+k
			// whichever read returns it.
			if c.off == 0 {
				salt0 = sums.Salt0
			} else if len(sums.Sums) > 0 && sums.Salt0 != salt0+uint64(c.first) {
				t.Fatalf("%s: chunk %d salted %#x, want %#x", c.name, c.first, sums.Salt0, salt0+uint64(c.first))
			}
			// ReadSummed finds the interface.
			if _, via, _ := store.ReadSummed(s, id, int64(c.off), buf); len(via.Sums) != len(sums.Sums) {
				t.Fatalf("%s: store.ReadSummed returned %d sums, the interface %d", c.name, len(via.Sums), len(sums.Sums))
			}
		}
	})

	t.Run("CorruptionYieldsNoSums", func(t *testing.T) {
		for _, inject := range []string{"CorruptChunk", "MisdirectNextRead"} {
			s := mk(t)
			sr := summed(t, s)
			id, _ := populate(t, s)
			c, ok := s.(store.Corruptible)
			if !ok {
				t.Fatalf("%T does not implement store.Corruptible", s)
			}
			// Both injections pick their victim from the seed; the file is
			// the only one, and every materialized chunk is read below.
			if inject == "CorruptChunk" && !c.CorruptChunk(5) || inject == "MisdirectNextRead" && !c.MisdirectNextRead(5) {
				t.Fatalf("%s found nothing to damage (vacuous)", inject)
			}
			buf := make([]byte, size)
			n, sums, err := sr.ReadSummedAt(id, 0, buf)
			if !errors.Is(err, store.ErrCorrupt) || n != 0 || sums.Sums != nil {
				t.Fatalf("%s: read returned %d bytes, %d sums, %v; want ErrCorrupt and no sums", inject, n, len(sums.Sums), err)
			}
		}
	})
}

// RunSummedWrite drives store.WriteSummed, through the store's
// store.SummedWriter when it has one and the CheckSums fallback otherwise.
// The sums are salted as a client keeps its blocks — by file block index
// plus a base no store uses — so a store that compares them under its own
// salts must convert them.  Correct sums store exactly what WriteAt stores;
// one wrong sum, or one damaged byte under a summed chunk, leaves the file
// as it was and returns ErrCorrupt.
func RunSummedWrite(t *testing.T, mk Factory) {
	const chunk = store.ChunkSize
	const saltBase = 1 << 40
	// sumsOf returns the writer's sums for b at off: every whole chunk from
	// the first boundary at or after off.
	sumsOf := func(off int64, b []byte) store.BlockSums {
		head := store.SumsHead(off)
		// Never nil: a write with no whole chunk carries an empty run.
		sums := store.BlockSums{Salt0: saltBase + uint64((off+head)/chunk), Sums: []uint32{}}
		for lo := head; lo+chunk <= int64(len(b)); lo += chunk {
			sums.Sums = append(sums.Sums, xdr.ChecksumSalted(sums.Salt0+uint64(len(sums.Sums)), b[lo:lo+chunk]))
		}
		return sums
	}
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i/997) ^ seed
		}
		return b
	}
	// The file starts with three chunks and a bit, so writes overwrite,
	// straddle and extend it.
	base := pattern(3*chunk+300, 0x5A)
	writes := []struct {
		name string
		off  int64
		n    int
	}{
		{"aligned whole chunks", 0, 2 * chunk},
		{"mid-chunk head and tail", chunk / 3, 2*chunk + 1000},
		{"extends past EOF", 2 * chunk, 3 * chunk},
		{"partial chunk only", 100, 5000},
		{"into a hole past EOF", 6 * chunk, chunk + 7},
	}
	contents := func(t *testing.T, s store.Store, id store.FileID) (store.Attr, []byte) {
		t.Helper()
		at, err := s.GetAttr(id)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, at.Size)
		if n, err := s.ReadAt(id, 0, b); err != nil || int64(n) != at.Size {
			t.Fatalf("read back: %d of %d bytes, %v", n, at.Size, err)
		}
		return at, b
	}
	setup := func(t *testing.T) (store.Store, store.FileID, store.FileID) {
		t.Helper()
		s := mk(t)
		a, _ := s.Create(s.Root(), "plain")
		b, _ := s.Create(s.Root(), "summed")
		for _, id := range []store.FileID{a.ID, b.ID} {
			if _, err := s.WriteAt(id, 0, base); err != nil {
				t.Fatal(err)
			}
		}
		return s, a.ID, b.ID
	}

	t.Run("MatchesWriteAt", func(t *testing.T) {
		for i, w := range writes {
			s, plain, summed := setup(t)
			data := pattern(w.n, byte(i+1))
			sums := sumsOf(w.off, data)
			wantSize, err := s.WriteAt(plain, w.off, data)
			if err != nil {
				t.Fatal(err)
			}
			size, err := store.WriteSummed(s, summed, w.off, data, sums)
			if err != nil || size != wantSize {
				t.Fatalf("%s: WriteSummed with %d correct sums: size %d, %v; WriteAt gave size %d",
					w.name, len(sums.Sums), size, err, wantSize)
			}
			_, want := contents(t, s, plain)
			if _, got := contents(t, s, summed); !bytes.Equal(got, want) {
				t.Fatalf("%s: WriteSummed stored other bytes than WriteAt", w.name)
			}
			// The stored chunks are sealed under the store's own salts: a
			// summed read verifies every one of them.
			if sr, ok := s.(store.SummedReader); ok {
				buf := make([]byte, len(want))
				if _, _, err := sr.ReadSummedAt(summed, 0, buf); err != nil {
					t.Fatalf("%s: summed read after WriteSummed: %v", w.name, err)
				}
			}
		}
	})

	t.Run("MismatchStoresNothing", func(t *testing.T) {
		for i, w := range writes {
			data := pattern(w.n, byte(i+1))
			sums := sumsOf(w.off, data)
			for k := range sums.Sums {
				for _, damage := range []string{"wrong sum", "damaged byte"} {
					s, _, summed := setup(t)
					before, beforeBytes := contents(t, s, summed)
					bad, badSums := data, sums
					if damage == "wrong sum" {
						badSums.Sums = append([]uint32(nil), sums.Sums...)
						badSums.Sums[k] ^= 1 << (k % 32)
					} else {
						bad = append([]byte(nil), data...)
						bad[store.SumsHead(w.off)+int64(k)*chunk+int64(k)*31] ^= 0x10
					}
					if _, err := store.WriteSummed(s, summed, w.off, bad, badSums); !errors.Is(err, store.ErrCorrupt) {
						t.Fatalf("%s, %s under sum %d: %v, want ErrCorrupt", w.name, damage, k, err)
					}
					after, afterBytes := contents(t, s, summed)
					if after != before || !bytes.Equal(afterBytes, beforeBytes) {
						t.Fatalf("%s, %s under sum %d: the refused write changed the file (%+v → %+v)",
							w.name, damage, k, before, after)
					}
				}
			}
		}
	})

	t.Run("MoreSumsThanChunks", func(t *testing.T) {
		s, _, summed := setup(t)
		data := pattern(chunk+10, 1)
		sums := sumsOf(5, data) // starting mid-chunk leaves no whole chunk
		sums.Sums = append(sums.Sums, 0)
		if _, err := store.WriteSummed(s, summed, 5, data, sums); !errors.Is(err, store.ErrInval) {
			t.Fatalf("a sum past the last whole chunk: %v, want ErrInval", err)
		}
	})
}

// RunReclaimer drives the store.Reclaimer contract: a reclaimed unlinked file
// is gone for every operation, a linked file or the root is refused and left
// as it was, and a file created afterwards — which may be handed the
// reclaimed storage — reads back only its own bytes, holes as zeros.
func RunReclaimer(t *testing.T, mk Factory) {
	reclaimer := func(t *testing.T, s store.Store) store.Reclaimer {
		t.Helper()
		r, ok := s.(store.Reclaimer)
		if !ok {
			t.Fatalf("%T does not implement store.Reclaimer", s)
		}
		return r
	}
	const chunk = store.ChunkSize
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	t.Run("ReclaimedIDIsGone", func(t *testing.T) {
		s := mk(t)
		r := reclaimer(t, s)
		keep, _ := s.Create(s.Root(), "keep")
		gone, _ := s.Create(s.Root(), "gone")
		kept := fill(2*chunk+10, 'k')
		if _, err := s.WriteAt(keep.ID, 0, kept); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteAt(gone.ID, 0, fill(3*chunk, 'g')); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		if err := r.Reclaim(gone.ID); err != store.ErrInval {
			t.Fatalf("reclaim of a linked file: %v, want ErrInval", err)
		}
		if err := s.Remove(s.Root(), "gone"); err != nil {
			t.Fatal(err)
		}
		if err := r.Reclaim(gone.ID); err != nil {
			t.Fatalf("reclaim of an unlinked file: %v", err)
		}
		buf := make([]byte, 16)
		if _, err := s.GetAttr(gone.ID); err != store.ErrNotExist {
			t.Fatalf("getattr after reclaim: %v, want ErrNotExist", err)
		}
		if _, err := s.ReadAt(gone.ID, 0, buf); err != store.ErrNotExist {
			t.Fatalf("read after reclaim: %v, want ErrNotExist", err)
		}
		if _, err := s.WriteAt(gone.ID, 0, buf); err != store.ErrNotExist {
			t.Fatalf("write after reclaim: %v, want ErrNotExist", err)
		}
		if err := r.Reclaim(gone.ID); err != store.ErrNotExist {
			t.Fatalf("second reclaim: %v, want ErrNotExist", err)
		}
		if err := r.Reclaim(s.Root()); err != store.ErrInval {
			t.Fatalf("reclaim of the root: %v, want ErrInval", err)
		}
		// The linked file is untouched, and a new file sees only its own
		// bytes wherever its chunks came from.
		got := make([]byte, len(kept))
		if n, err := s.ReadAt(keep.ID, 0, got); err != nil || n != len(kept) || !bytes.Equal(got, kept) {
			t.Fatalf("linked file after reclaim: n=%d, %v", n, err)
		}
		fresh, _ := s.Create(s.Root(), "fresh")
		for _, off := range []int64{10, chunk + 20, 2*chunk + 30} {
			if _, err := s.WriteAt(fresh.ID, off, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]byte, 2*chunk+31)
		for _, off := range []int64{10, chunk + 20, 2*chunk + 30} {
			want[off] = 'x'
		}
		got = make([]byte, len(want))
		if n, err := s.ReadAt(fresh.ID, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("a file created after the reclaim reads foreign bytes: n=%d, %v", n, err)
		}
		if names, _ := s.ReadDir(s.Root()); strings.Join(names, ",") != "fresh,keep" {
			t.Fatalf("namespace after reclaim: %v", names)
		}
	})

	// Reclaim writes no record: a synced unlink stays unlinked across a
	// crash, and an unlink the crash lost brings the file back from the log.
	t.Run("RecoveryIgnoresReclaim", func(t *testing.T) {
		s := mk(t)
		r := reclaimer(t, s)
		rec, ok := s.(store.Recoverable)
		if !ok {
			t.Skipf("%T is not store.Recoverable", s)
		}
		durable := fill(chunk+5, 'd')
		for _, name := range []string{"synced-unlink", "lost-unlink"} {
			f, _ := s.Create(s.Root(), name)
			if _, err := s.WriteAt(f.ID, 0, durable); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"synced-unlink", "lost-unlink"} {
			at, _ := s.Lookup(s.Root(), name)
			if err := s.Remove(s.Root(), name); err != nil {
				t.Fatal(err)
			}
			if err := r.Reclaim(at.ID); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := s.Sync(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		rec.Crash()
		if _, err := rec.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup(s.Root(), "synced-unlink"); err != store.ErrNotExist {
			t.Fatalf("synced unlink undone by recovery: %v", err)
		}
		at, err := s.Lookup(s.Root(), "lost-unlink")
		if err != nil {
			t.Fatalf("file whose unlink the crash lost: %v", err)
		}
		got := make([]byte, len(durable))
		if n, err := s.ReadAt(at.ID, 0, got); err != nil || n != len(durable) || !bytes.Equal(got, durable) {
			t.Fatalf("file whose unlink the crash lost reads back n=%d, %v", n, err)
		}
	})
}

// RecoverableFactory builds a fresh store that also implements
// store.Recoverable.
type RecoverableFactory func(t *testing.T) store.Store

// RunRecoverable drives the crash/recover contract: everything acknowledged
// before a Sync survives Crash+Recover byte-identically under the same ids,
// everything after the last Sync is lost, and a crashed store refuses
// service until recovered.
func RunRecoverable(t *testing.T, mk RecoverableFactory) {
	rec := func(t *testing.T, s store.Store) store.Recoverable {
		r, ok := s.(store.Recoverable)
		if !ok {
			t.Fatalf("%T does not implement store.Recoverable", s)
		}
		return r
	}

	t.Run("SyncedStateSurvives", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		d, _ := s.Mkdir(s.Root(), "dir")
		f, err := s.Create(d.ID, "f")
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("durable bytes")
		s.WriteAt(f.ID, 0, payload)
		s.WriteSyntheticAt(f.ID, 1<<16, 1<<16)
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		r.Crash()
		replayed, err := r.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if replayed == 0 {
			t.Fatal("recovery replayed nothing (vacuous)")
		}
		got, err := s.LookupPath("/dir/f")
		if err != nil || got.ID != f.ID {
			t.Fatalf("id not stable across recovery: %+v, %v (want %d)", got, err, f.ID)
		}
		if got.Size != 1<<16+1<<16 {
			t.Fatalf("size after recovery: %d", got.Size)
		}
		buf := make([]byte, len(payload))
		if n, _ := s.ReadAt(f.ID, 0, buf); !bytes.Equal(buf[:n], payload) {
			t.Fatalf("bytes after recovery: %q", buf[:n])
		}
	})

	t.Run("UnsyncedTailLost", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		f, _ := s.Create(s.Root(), "f")
		s.WriteAt(f.ID, 0, []byte("synced"))
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		s.WriteAt(f.ID, 0, []byte("VOLATILE OVERWRITE"))
		s.Create(s.Root(), "unsynced")
		r.Crash()
		if _, err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		n, _ := s.ReadAt(f.ID, 0, buf)
		if string(buf[:n]) != "synced" {
			t.Fatalf("tail not dropped: %q", buf[:n])
		}
		if _, err := s.Lookup(s.Root(), "unsynced"); err != store.ErrNotExist {
			t.Fatalf("unsynced create survived: %v", err)
		}
	})

	t.Run("TruncateAfterWriteSurvives", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		f, _ := s.Create(s.Root(), "f")
		s.WriteAt(f.ID, 0, []byte("committed bytes"))
		if err := s.Truncate(f.ID, 9); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		r.Crash()
		if _, err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 32)
		n, _ := s.ReadAt(f.ID, 0, buf)
		if string(buf[:n]) != "committed" {
			t.Fatalf("bytes after recovery: %q, want the truncated %q", buf[:n], "committed")
		}
	})

	t.Run("RemovedBeforeSyncStaysGone", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		f, _ := s.Create(s.Root(), "f")
		s.WriteAt(f.ID, 0, []byte("doomed"))
		if err := s.Remove(s.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
		r.Crash()
		if _, err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup(s.Root(), "f"); err != store.ErrNotExist {
			t.Fatalf("removed file after recovery: %v", err)
		}
	})

	t.Run("CrashedRefusesService", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		f, _ := s.Create(s.Root(), "f")
		s.Sync(nil)
		r.Crash()
		if _, err := s.Lookup(s.Root(), "f"); err != store.ErrUnavailable {
			t.Fatalf("lookup while crashed: %v, want ErrUnavailable", err)
		}
		if _, err := s.WriteAt(f.ID, 0, []byte("x")); err != store.ErrUnavailable {
			t.Fatalf("write while crashed: %v, want ErrUnavailable", err)
		}
		if err := s.Sync(nil); err != store.ErrUnavailable {
			t.Fatalf("sync while crashed: %v, want ErrUnavailable", err)
		}
		if _, err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup(s.Root(), "f"); err != nil {
			t.Fatalf("lookup after recover: %v", err)
		}
	})

	t.Run("NamespaceOpsReplay", func(t *testing.T) {
		s := mk(t)
		r := rec(t, s)
		a, _ := s.Mkdir(s.Root(), "a")
		b, _ := s.Mkdir(s.Root(), "b")
		f, _ := s.Create(a.ID, "f")
		s.WriteAt(f.ID, 0, []byte("x"))
		s.Rename(a.ID, "f", b.ID, "g")
		s.Create(a.ID, "gone")
		s.Remove(a.ID, "gone")
		s.Truncate(f.ID, 0)
		s.Sync(nil)
		r.Crash()
		if _, err := r.Recover(); err != nil {
			t.Fatal(err)
		}
		got, err := s.LookupPath("/b/g")
		if err != nil || got.ID != f.ID || got.Size != 0 {
			t.Fatalf("replayed namespace: %+v, %v", got, err)
		}
		if _, err := s.LookupPath("/a/gone"); err != store.ErrNotExist {
			t.Fatalf("removed file replayed back: %v", err)
		}
	})
}

// Dump renders a store's namespace-reachable state — paths, kinds, sizes
// and full contents — through the public interface only, so two backends
// can be compared byte-for-byte.
func Dump(t *testing.T, s store.Store) string {
	t.Helper()
	var sb strings.Builder
	var walk func(dir store.FileID, prefix string)
	walk = func(dir store.FileID, prefix string) {
		names, err := s.ReadDir(dir)
		if err != nil {
			t.Fatalf("dump readdir %s: %v", prefix, err)
		}
		for _, name := range names {
			at, err := s.Lookup(dir, name)
			if err != nil {
				t.Fatalf("dump lookup %s%s: %v", prefix, name, err)
			}
			if at.IsDir {
				fmt.Fprintf(&sb, "%s%s/\n", prefix, name)
				walk(at.ID, prefix+name+"/")
				continue
			}
			buf := make([]byte, at.Size)
			n, err := s.ReadAt(at.ID, 0, buf)
			if err != nil {
				t.Fatalf("dump read %s%s: %v", prefix, name, err)
			}
			fmt.Fprintf(&sb, "%s%s id=%d size=%d bytes=%x\n", prefix, name, at.ID, at.Size, buf[:n])
		}
	}
	walk(s.Root(), "/")
	return sb.String()
}
