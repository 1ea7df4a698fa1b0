package cached

import (
	"testing"

	"dpnfs/internal/store"
	"dpnfs/internal/store/storetest"
	"dpnfs/internal/store/wal"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

func TestRecoverable(t *testing.T) {
	storetest.RunRecoverable(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

func TestCorruptible(t *testing.T) {
	storetest.RunCorruptible(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

func TestSummedRead(t *testing.T) {
	storetest.RunSummedRead(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

func TestSummedWrite(t *testing.T) {
	storetest.RunSummedWrite(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

func TestReclaimer(t *testing.T) {
	storetest.RunReclaimer(t, func(t *testing.T) store.Store { return New(wal.Config{Name: "test"}) })
}

// The write-back contract: data writes stage volatile and journal only at
// Sync, while namespace mutations journal immediately (and become durable
// at the next Sync even when no data was dirty).
func TestWriteBackSemantics(t *testing.T) {
	s := New(wal.Config{Name: "test"})
	f, _ := s.Create(s.Root(), "f")
	s.Sync(nil)

	// Unsynced data is lost by a crash; the earlier namespace is not.
	s.WriteAt(f.ID, 0, []byte("dirty dirty"))
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	at, err := s.Lookup(s.Root(), "f")
	if err != nil || at.ID != f.ID {
		t.Fatalf("namespace lost: %+v, %v", at, err)
	}
	if at.Size != 0 {
		t.Fatalf("uncommitted write survived: size %d", at.Size)
	}

	// Committed data comes back byte-identically, clipped to a truncate
	// that happened after the write.
	s.WriteAt(f.ID, 0, []byte("committed bytes"))
	s.Truncate(f.ID, 9)
	if err := s.Sync(nil); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := s.ReadAt(f.ID, 0, buf)
	if string(buf[:n]) != "committed" {
		t.Fatalf("committed bytes after recovery: %q", buf[:n])
	}
}

// Removing a file drops its pending dirty ranges: the next Sync journals
// nothing for it and recovery does not resurrect it.
func TestRemoveDropsDirty(t *testing.T) {
	s := New(wal.Config{Name: "test"})
	f, _ := s.Create(s.Root(), "f")
	s.WriteAt(f.ID, 0, []byte("doomed"))
	if err := s.Remove(s.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if len(s.dirty) != 0 {
		t.Fatalf("dirty ranges survive remove: %v", s.dirty)
	}
	if err := s.Sync(nil); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(s.Root(), "f"); err != store.ErrNotExist {
		t.Fatalf("removed file after recovery: %v", err)
	}
}

// A storage daemon reclaims an object right after IO-REMOVE, with no lock
// against a Sync that another file's COMMIT is running.  A file reclaimed
// between Sync's GetAttr and its journal records must neither fail the Sync
// nor cost the files after it in the batch their committed bytes.
func TestSyncRacingReclaim(t *testing.T) {
	s := New(wal.Config{Name: "test"})
	var ids []store.FileID
	for _, name := range []string{"a", "b", "c"} {
		at, err := s.Create(s.Root(), name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteAt(at.ID, 0, []byte("bytes of "+name)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, at.ID)
	}
	victim := ids[0] // Sync journals in id order: the victim goes first
	fired := false
	s.testHookJournal = func(id store.FileID) {
		if id != victim || fired {
			return
		}
		fired = true
		if err := s.Remove(s.Root(), "a"); err != nil {
			t.Fatal(err)
		}
		if err := s.Reclaim(victim); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(nil); err != nil {
		t.Fatalf("Sync with a file reclaimed mid-batch: %v", err)
	}
	if !fired {
		t.Fatal("hook never ran between GetAttr and the journal")
	}

	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(s.Root(), "a"); err != store.ErrNotExist {
		t.Fatalf("reclaimed file after recovery: %v", err)
	}
	for i, name := range []string{"b", "c"} {
		buf := make([]byte, 32)
		n, err := s.ReadAt(ids[i+1], 0, buf)
		if err != nil || string(buf[:n]) != "bytes of "+name {
			t.Fatalf("%s after recovery: %q, %v", name, buf[:n], err)
		}
	}
}

func TestExtentCoalescing(t *testing.T) {
	var xs extents
	xs.add(10, 20)
	xs.add(30, 40)
	xs.add(19, 31) // bridges both
	if len(xs) != 1 || xs[0] != (extent{10, 40}) {
		t.Fatalf("coalesce: %v", xs)
	}
	xs.add(40, 50) // adjacent extends
	if len(xs) != 1 || xs[0] != (extent{10, 50}) {
		t.Fatalf("adjacent merge: %v", xs)
	}
	clipped := xs.clip(45)
	if len(clipped) != 1 || clipped[0] != (extent{10, 45}) {
		t.Fatalf("clip: %v", clipped)
	}
	if out := xs.clip(5); len(out) != 0 {
		t.Fatalf("clip below: %v", out)
	}
}
