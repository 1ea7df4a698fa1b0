package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dpnfs/internal/metrics"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/store/storetest"
	"dpnfs/internal/xdr"
)

// counterSum totals one counter family's series values in a registry.
func counterSum(reg *metrics.Registry, name string) float64 {
	return reg.Snapshot().Total(name)
}

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestRecoverable(t *testing.T) {
	storetest.RunRecoverable(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestCorruptible(t *testing.T) {
	storetest.RunCorruptible(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestSummedRead(t *testing.T) {
	storetest.RunSummedRead(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestSummedWrite(t *testing.T) {
	storetest.RunSummedWrite(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestReclaimer(t *testing.T) {
	storetest.RunReclaimer(t, func(t *testing.T) store.Store { return New(Config{Name: "test"}) })
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []record{
		{op: opCreate, dir: 1, id: 7, name: "f"},
		{op: opRename, dir: 2, dir2: 3, name: "a", name2: "b"},
		{op: opWrite, id: 7, off: 1 << 20, data: []byte("payload")},
		{op: opWriteSyn, id: 7, off: 0, size: 1 << 30},
		{op: opReserveID, id: 99},
	}
	for i, r := range recs {
		enc := xdr.Encode(&r)
		var got record
		if err := xdr.Decode(enc, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.data == nil {
			got.data = []byte{}
		}
		want := r
		if want.data == nil {
			want.data = []byte{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round trip: %+v != %+v", i, got, want)
		}
	}
}

// Replaying a corrupt log fails loudly instead of silently rebuilding a
// wrong namespace.  The damaged record must not be the final durable one —
// a bad tail is the torn-write case, tolerated separately below.
func TestRecoverCorruptRecord(t *testing.T) {
	s := New(Config{Name: "test"})
	s.Create(s.Root(), "f")
	s.Create(s.Root(), "g")
	s.Sync(nil)
	s.durable[0] = s.durable[0][:5]
	s.Crash()
	if _, err := s.Recover(); err == nil {
		t.Fatal("corrupt record replayed without error")
	}
}

// A corrupt *final* durable record is a torn write: the last journal flush
// was cut short by the crash.  Recover drops exactly that record, counts
// the detection, and replays the rest cleanly.
func TestRecoverTornTail(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Name: "test", Metrics: reg})
	s.Create(s.Root(), "kept")
	s.Create(s.Root(), "torn")
	s.Sync(nil)
	s.ArmTornWrite()
	s.Crash()
	replayed, err := s.Recover()
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail dropped)", replayed)
	}
	if _, err := s.Lookup(s.Root(), "kept"); err != nil {
		t.Fatalf("intact record lost: %v", err)
	}
	if _, err := s.Lookup(s.Root(), "torn"); err != store.ErrNotExist {
		t.Fatalf("torn record replayed: %v", err)
	}
	if n := counterSum(reg, "store_wal_torn_writes_total"); n != 1 {
		t.Fatalf("store_wal_torn_writes_total = %v, want 1", n)
	}
	// Recovery is idempotent: the dropped record stays dropped.
	s.Crash()
	if _, err := s.Recover(); err != nil {
		t.Fatalf("second recover: %v", err)
	}
}

// A checkpoint image that lost records fails Recover loudly via its
// whole-image trailer, even though every surviving record's own checksum
// still verifies.
func TestRecoverCorruptCheckpoint(t *testing.T) {
	s := New(Config{Name: "test", CheckpointEvery: 2})
	s.Create(s.Root(), "a")
	s.Create(s.Root(), "b")
	s.Sync(nil) // 2 durable records: folds into a checkpoint
	if len(s.checkpoint) == 0 {
		t.Fatal("checkpoint did not fold")
	}
	s.checkpoint = s.checkpoint[:len(s.checkpoint)-1] // drop a record, each intact
	s.Crash()
	if _, err := s.Recover(); !errors.Is(err, xdr.ErrChecksum) {
		t.Fatalf("truncated checkpoint replayed: %v", err)
	}
}

// Once the durable log passes CheckpointEvery, Sync folds it into a
// checkpoint; recovery from the checkpoint reproduces the same state, does
// not resurrect unlinked files, and never re-issues their ids.
func TestCheckpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Name: "test", CheckpointEvery: 4, Metrics: reg})
	f, _ := s.Create(s.Root(), "keep")
	s.WriteAt(f.ID, 0, []byte("kept bytes"))
	gone, _ := s.Create(s.Root(), "gone")
	s.Remove(s.Root(), "gone")
	s.Sync(nil) // 4 durable records: checkpoint triggers
	if len(s.checkpoint) == 0 || len(s.durable) != 0 {
		t.Fatalf("checkpoint did not fold: ckpt=%d durable=%d", len(s.checkpoint), len(s.durable))
	}
	s.Crash()
	replayed, err := s.Recover()
	if err != nil || replayed == 0 {
		t.Fatalf("recover: %d, %v", replayed, err)
	}
	buf := make([]byte, 10)
	if n, _ := s.ReadAt(f.ID, 0, buf); string(buf[:n]) != "kept bytes" {
		t.Fatalf("checkpointed bytes: %q", buf[:n])
	}
	// The unlinked file was reclaimed by the checkpoint...
	if _, err := s.GetAttr(gone.ID); err != store.ErrNotExist {
		t.Fatalf("reclaimed inode addressable: %v", err)
	}
	// ...but its id is never re-issued.
	n, _ := s.Create(s.Root(), "new")
	if n.ID <= gone.ID {
		t.Fatalf("id %d re-issued after checkpoint (reclaimed %d)", n.ID, gone.ID)
	}
	found := false
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == "store_wal_checkpoint_bytes_total" {
			for _, series := range fam.Series {
				if series.Value > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("store_wal_checkpoint_bytes_total not incremented")
	}
}

// A long create/write/rename/remove/truncate script leaves mem and wal —
// including wal after a crash+recover — in byte-identical states.
func TestDifferentialMemWal(t *testing.T) {
	m := mem.New()
	w := New(Config{Name: "test", CheckpointEvery: 8})
	both := []store.Store{m, w}
	run := func(f func(s store.Store) error) {
		t.Helper()
		var errs [2]error
		for i, s := range both {
			errs[i] = f(s)
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("backends diverged: mem=%v wal=%v", errs[0], errs[1])
		}
	}
	run(func(s store.Store) error { _, err := s.Mkdir(s.Root(), "d"); return err })
	run(func(s store.Store) error { _, err := s.Create(s.Root(), "a"); return err })
	run(func(s store.Store) error {
		at, _ := s.LookupPath("/a")
		_, err := s.WriteAt(at.ID, 100, bytes.Repeat([]byte{0x5A}, 70_000))
		return err
	})
	run(func(s store.Store) error {
		at, _ := s.LookupPath("/a")
		return s.Truncate(at.ID, 65_000)
	})
	run(func(s store.Store) error {
		d, _ := s.LookupPath("/d")
		return s.Rename(s.Root(), "a", d.ID, "b")
	})
	run(func(s store.Store) error { _, err := s.Create(s.Root(), "tmp"); return err })
	run(func(s store.Store) error { return s.Remove(s.Root(), "tmp") })
	run(func(s store.Store) error {
		at, _ := s.LookupPath("/d/b")
		_, err := s.WriteSyntheticAt(at.ID, 1<<20, 512)
		return err
	})
	run(func(s store.Store) error { return s.Sync(nil) })

	want := storetest.Dump(t, m)
	if got := storetest.Dump(t, w); got != want {
		t.Fatalf("mem and wal disagree:\nmem:\n%s\nwal:\n%s", want, got)
	}
	w.Crash()
	if _, err := w.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := storetest.Dump(t, w); got != want {
		t.Fatalf("wal after recovery disagrees:\nmem:\n%s\nwal:\n%s", want, got)
	}
}

// The same corruption seed rots the same logical chunk on mem and wal, both
// surface it as the same typed error, and the same repair write converges
// both back to byte-identical state — so detection and repair behave the
// same whichever backend a node runs, including across a wal crash+recover.
func TestDifferentialCorruptionRepairConverges(t *testing.T) {
	m := mem.New()
	w := New(Config{Name: "test"})
	both := []store.Store{m, w}
	content := bytes.Repeat([]byte{0xC3, 0x17, 0x7E, 0x44}, 48<<10/4)
	var ids [2]store.FileID
	for i, s := range both {
		at, err := s.Create(s.Root(), "f")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = at.ID
		if _, err := s.WriteAt(at.ID, 0, content); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatal(err)
		}
	}

	const seed = 42
	for i, s := range both {
		if !s.(store.Corruptible).CorruptChunk(seed) {
			t.Fatalf("backend %d: nothing to corrupt", i)
		}
		buf := make([]byte, len(content))
		if _, err := s.ReadAt(ids[i], 0, buf); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("backend %d: rotted read returned %v, want ErrCorrupt", i, err)
		}
	}

	// Repair exactly as read-repair does: overwrite with the good bytes.
	for i, s := range both {
		if _, err := s.WriteAt(ids[i], 0, content); err != nil {
			t.Fatalf("backend %d repair: %v", i, err)
		}
		if err := s.Sync(nil); err != nil {
			t.Fatalf("backend %d sync: %v", i, err)
		}
	}

	want := storetest.Dump(t, m)
	if got := storetest.Dump(t, w); got != want {
		t.Fatalf("after repair, mem and wal disagree:\nmem:\n%s\nwal:\n%s", want, got)
	}
	w.Crash()
	if _, err := w.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := storetest.Dump(t, w); got != want {
		t.Fatalf("repaired wal diverged across recovery:\nmem:\n%s\nwal:\n%s", want, got)
	}
}

// TestStatsReadsZeroWhileCrashed: Stats counts the live inodes, reads 0
// while the store is crashed, and counts the replayed ones after Recover.
func TestStatsReadsZeroWhileCrashed(t *testing.T) {
	s := New(Config{Name: "test"})
	base := s.Stats()
	if _, err := s.Create(s.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != base+1 {
		t.Fatalf("Stats after a create = %d, want %d", got, base+1)
	}
	s.Crash()
	if got := s.Stats(); got != 0 {
		t.Fatalf("Stats of a crashed store = %d, want 0", got)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != base+1 {
		t.Fatalf("Stats after Recover = %d, want %d", got, base+1)
	}
}
