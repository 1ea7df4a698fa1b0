package scrub

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
)

// twin builds two byte-identical mem stores — the scanned store and its
// "replica" — holding files files of size bytes each.
func twin(t *testing.T, files int, size int64) (*mem.Store, *mem.Store, [][]byte) {
	t.Helper()
	a, b := mem.New(), mem.New()
	var contents [][]byte
	for i := 0; i < files; i++ {
		c := make([]byte, size)
		for j := range c {
			c[j] = byte(j + i*31 + 7)
		}
		contents = append(contents, c)
		for _, s := range []*mem.Store{a, b} {
			at, err := s.Create(s.Root(), fmt.Sprintf("f%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteAt(at.ID, 0, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a, b, contents
}

// fetchFrom repairs out of the replica store.  Stores built by twin hold
// each file under the same name, mirroring how the storage daemons name
// each datafile object after the handle the metadata server allocated.
func fetchFrom(replica *mem.Store) Fetch {
	return func(_ *rpc.Ctx, name string, off int64, b []byte) (int, error) {
		at, err := replica.Lookup(replica.Root(), name)
		if err != nil {
			return 0, err
		}
		return replica.ReadAt(at.ID, off, b)
	}
}

// tally is a scrubber's scrub_{extents,errors_found,repaired}_total.
type tally struct{ extents, found, repaired float64 }

func counted(reg *metrics.Registry) tally {
	snap := reg.Snapshot()
	return tally{snap.Total("scrub_extents_total"), snap.Total("scrub_errors_found_total"), snap.Total("scrub_repaired_total")}
}

// pass runs one pass of s and returns what it added to the counters in reg.
func pass(s *Scrubber, reg *metrics.Registry) (tally, error) {
	before := counted(reg)
	err := s.Pass(&rpc.Ctx{})
	after := counted(reg)
	return tally{after.extents - before.extents, after.found - before.found, after.repaired - before.repaired}, err
}

func TestPassDetectsAndRepairs(t *testing.T) {
	a, b, contents := twin(t, 3, 160<<10)
	if !a.CorruptChunk(5) {
		t.Fatal("nothing to corrupt")
	}
	reg := metrics.NewRegistry()
	s := New(Config{Node: "io0", Store: a, Fetch: fetchFrom(b), Metrics: reg})
	res, err := pass(s, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.extents == 0 || res.found != 1 || res.repaired != 1 {
		t.Fatalf("pass counted %+v, want 1 found and 1 repaired", res)
	}
	// The store is clean again: a second pass finds nothing, and every
	// byte reads back identical to the original content.
	res, err = pass(s, reg)
	if err != nil || res.found != 0 {
		t.Fatalf("second pass %+v, %v — repair did not stick", res, err)
	}
	for i, want := range contents {
		at, err := a.LookupPath(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := a.ReadAt(at.ID, 0, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file %d after repair: %v", i, err)
		}
	}
}

func TestDetectOnlyWithoutFetch(t *testing.T) {
	a, _, _ := twin(t, 2, 128<<10)
	if !a.CorruptChunk(9) {
		t.Fatal("nothing to corrupt")
	}
	reg := metrics.NewRegistry()
	s := New(Config{Node: "io0", Store: a, Metrics: reg})
	res, err := pass(s, reg)
	if err != nil || res.found != 1 || res.repaired != 0 {
		t.Fatalf("detect-only pass %+v, %v — want found=1 repaired=0", res, err)
	}
	// Without a repair source the rot persists: the next pass finds the
	// same chunk again rather than losing track of it.
	res, err = pass(s, reg)
	if err != nil || res.found != 1 {
		t.Fatalf("second detect-only pass %+v, %v", res, err)
	}
}

func TestFailedFetchLeavesChunkForNextPass(t *testing.T) {
	a, _, _ := twin(t, 1, 128<<10)
	if !a.CorruptChunk(3) {
		t.Fatal("nothing to corrupt")
	}
	fail := func(_ *rpc.Ctx, _ string, _ int64, _ []byte) (int, error) {
		return 0, fmt.Errorf("no live replica")
	}
	reg := metrics.NewRegistry()
	s := New(Config{Node: "io0", Store: a, Fetch: fail, Metrics: reg})
	res, err := pass(s, reg)
	if err != nil || res.found != 1 || res.repaired != 0 {
		t.Fatalf("pass with failing fetch %+v, %v", res, err)
	}
}

// Identically seeded setups produce identical metric snapshots: the walk
// order, chunking and victim selection are all deterministic, which is what
// lets the integrity figure replay byte-identically.
func TestPassDeterministic(t *testing.T) {
	results := make([]string, 2)
	for i := range results {
		a, b, _ := twin(t, 4, 200<<10)
		if !a.CorruptChunk(11) {
			t.Fatal("nothing to corrupt")
		}
		reg := metrics.NewRegistry()
		s := New(Config{Node: "io0", Store: a, Fetch: fetchFrom(b), Metrics: reg})
		if err := s.Pass(&rpc.Ctx{}); err != nil {
			t.Fatal(err)
		}
		results[i] = fmt.Sprintf("%+v", reg.Snapshot())
	}
	if results[0] != results[1] {
		t.Fatalf("replayed pass diverged: %+v vs %+v", results[0], results[1])
	}
}

// reclaimMidPass is a store whose file f0 is removed and reclaimed in the
// middle of a pass — an IO-REMOVE landing while the scrubber runs: after the
// walk listed it, or after its extents were mapped too.
type reclaimMidPass struct {
	*mem.Store
	afterExtents bool
}

func (s reclaimMidPass) reclaimF0() error {
	at, err := s.Lookup(s.Root(), "f0")
	if err != nil {
		return nil // already gone
	}
	if err := s.Remove(s.Root(), "f0"); err != nil {
		return err
	}
	return s.Reclaim(at.ID)
}

func (s reclaimMidPass) Walk(fn func(dir store.FileID, name string, at store.Attr) error) error {
	if err := s.Store.Walk(fn); err != nil || s.afterExtents {
		return err
	}
	return s.reclaimF0()
}

func (s reclaimMidPass) Extents(id store.FileID) ([]mem.Extent, error) {
	exts, err := s.Store.Extents(id)
	if err == nil && s.afterExtents {
		err = s.reclaimF0()
	}
	return exts, err
}

// TestPassSkipsFilesReclaimedMidPass: a file removed and reclaimed after the
// walk has nothing left to verify; the pass scans the other file and does
// not fail.
func TestPassSkipsFilesReclaimedMidPass(t *testing.T) {
	for _, afterExtents := range []bool{false, true} {
		a, _, _ := twin(t, 2, 128<<10)
		reg := metrics.NewRegistry()
		s := New(Config{Node: "io0", Store: reclaimMidPass{a, afterExtents}, Metrics: reg})
		res, err := pass(s, reg)
		if err != nil {
			t.Fatalf("afterExtents=%v: pass failed on a file reclaimed mid-pass: %v", afterExtents, err)
		}
		// Mapped before the reclaim, f0's chunks still count as scanned.
		want := 2.0
		if afterExtents {
			want = 4
		}
		if res.extents != want {
			t.Fatalf("afterExtents=%v: pass scanned %v chunks, want %v", afterExtents, res.extents, want)
		}
	}
}
