// Package cached composes a memory-speed front over a WAL back: data
// writes stage into the WAL's materialized image without journalling, and
// Sync journals the dirty ranges before flushing the log.  This is the
// NFSv3/v4 unstable-WRITE + COMMIT contract as a storage backend — writes
// are acknowledged from volatile memory, and only a commit point pays for
// durability — in the spirit of dittofs's split Repository /
// ContentRepository caching (SNIPPETS.md §2).
//
// Namespace mutations are not cached: they journal immediately through the
// underlying WAL (directory operations are ordinarily synchronous on a
// server).  A crash therefore loses exactly the un-committed data writes,
// never an acknowledged namespace change that was followed by a Sync.
package cached

import (
	"errors"
	"sort"
	"sync"

	"dpnfs/internal/sim"
	"dpnfs/internal/store"
	"dpnfs/internal/store/wal"
)

// Store is a cached WAL store.
type Store struct {
	*wal.Store

	mu    sync.Mutex
	dirty map[store.FileID]*dirtyFile

	// testHookJournal, when set, runs in Sync between a file's GetAttr and
	// its first journal record.
	testHookJournal func(id store.FileID)
}

type dirtyFile struct {
	real extents // byte ranges with journalling payloads
	syn  extents // sizing-only ranges (synthetic writes)
}

var (
	_ store.Store       = (*Store)(nil)
	_ store.Recoverable = (*Store)(nil)
	// Corruption hooks, torn-write arming, summed reads and reclaim promote
	// from the embedded WAL: rot lands on the shared materialized image,
	// which both the cached front and the journal's checkpoints read
	// through.  Sync skips whatever dirty ranges a reclaimed node left.
	_ store.Corruptible  = (*Store)(nil)
	_ store.TornWriter   = (*Store)(nil)
	_ store.SummedReader = (*Store)(nil)
	_ store.Reclaimer    = (*Store)(nil)
)

// New returns a cached store over a fresh WAL built from cfg.
func New(cfg wal.Config) *Store {
	return &Store{Store: wal.New(cfg), dirty: make(map[store.FileID]*dirtyFile)}
}

func (s *Store) dirtyFor(id store.FileID) *dirtyFile {
	df, ok := s.dirty[id]
	if !ok {
		df = &dirtyFile{}
		s.dirty[id] = df
	}
	return df
}

// WriteAt stages the write into the image and tracks the range as dirty;
// nothing is journalled until Sync.
func (s *Store) WriteAt(id store.FileID, off int64, b []byte) (int64, error) {
	size, err := s.Store.StageWriteAt(id, off, b)
	if err != nil {
		return size, err
	}
	s.mu.Lock()
	s.dirtyFor(id).real.add(off, off+int64(len(b)))
	s.mu.Unlock()
	return size, nil
}

// WriteSyntheticAt stages a sizing-only write.
func (s *Store) WriteSyntheticAt(id store.FileID, off, n int64) (int64, error) {
	size, err := s.Store.StageWriteSyntheticAt(id, off, n)
	if err != nil {
		return size, err
	}
	s.mu.Lock()
	s.dirtyFor(id).syn.add(off, off+n)
	s.mu.Unlock()
	return size, nil
}

// Remove unlinks name from dir; pending dirty ranges of the displaced file
// are dropped (no point journalling bytes of an unlinked file at the next
// commit).
func (s *Store) Remove(dir store.FileID, name string) error {
	at, lerr := s.Store.Lookup(dir, name)
	if err := s.Store.Remove(dir, name); err != nil {
		return err
	}
	if lerr == nil {
		s.mu.Lock()
		delete(s.dirty, at.ID)
		s.mu.Unlock()
	}
	return nil
}

// Sync journals every dirty range — reading the bytes currently staged in
// the image, clipped to the current file size — and then flushes the WAL,
// charging the disk.  After Sync returns, all previously acknowledged
// writes survive a crash.
func (s *Store) Sync(p *sim.Proc) error {
	s.mu.Lock()
	ids := make([]store.FileID, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	flush := make(map[store.FileID]*dirtyFile, len(ids))
	for _, id := range ids {
		flush[id] = s.dirty[id]
	}
	s.dirty = make(map[store.FileID]*dirtyFile)
	s.mu.Unlock()

	for _, id := range ids {
		// A file reclaimed before or during its turn owes no bytes to
		// anyone; the batch goes on, or every later file's ranges — already
		// taken from s.dirty — would be lost with a Sync reported failed.
		if err := s.journal(id, flush[id]); err != nil && !errors.Is(err, store.ErrNotExist) {
			return err
		}
	}
	return s.Store.Sync(p)
}

// journal appends df's ranges, clipped to id's current size, to the log.
// It fails with store.ErrNotExist once id is reclaimed (store.Reclaimer): a
// storage daemon reclaims an object right after IO-REMOVE, without waiting
// for a Sync that may be running.
func (s *Store) journal(id store.FileID, df *dirtyFile) error {
	at, err := s.Store.GetAttr(id)
	if err != nil {
		return err
	}
	if s.testHookJournal != nil {
		s.testHookJournal(id)
	}
	for _, e := range df.real.clip(at.Size) {
		if err := s.Store.JournalWriteAt(id, e.lo, e.hi-e.lo); err != nil {
			return err
		}
	}
	for _, e := range df.syn.clip(at.Size) {
		if err := s.Store.JournalWriteSyntheticAt(id, e.lo, e.hi-e.lo); err != nil {
			return err
		}
	}
	return nil
}

// Crash discards the dirty tracking along with the WAL's volatile state.
func (s *Store) Crash() {
	s.mu.Lock()
	s.dirty = make(map[store.FileID]*dirtyFile)
	s.mu.Unlock()
	s.Store.Crash()
}

// extents is a sorted list of half-open, coalesced byte ranges.
type extents []extent

type extent struct{ lo, hi int64 }

// add inserts [lo, hi), merging overlapping and adjacent ranges.
func (xs *extents) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	out := make(extents, 0, len(*xs)+1)
	for _, e := range *xs {
		switch {
		case e.hi < lo || hi < e.lo: // disjoint, not even adjacent
			out = append(out, e)
		default: // overlap or touch: absorb into the new range
			if e.lo < lo {
				lo = e.lo
			}
			if e.hi > hi {
				hi = e.hi
			}
		}
	}
	out = append(out, extent{lo, hi})
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	*xs = out
}

// clip returns the ranges intersected with [0, size).
func (xs extents) clip(size int64) extents {
	var out extents
	for _, e := range xs {
		if e.lo >= size {
			continue
		}
		if e.hi > size {
			e.hi = size
		}
		out = append(out, e)
	}
	return out
}
