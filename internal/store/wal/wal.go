// Package wal implements a write-ahead-logged store.Store: the durable
// backend a storage node or MDS can run instead of plain memory, in the
// style of log-structured NFS servers (tchajed/go-nfs — see SNIPPETS.md §3).
//
// Every mutation applies to a materialized in-memory image (store/mem) and
// appends an XDR-encoded record to a volatile tail of the log.  Sync is the
// durability point: it promotes the tail to the durable log and charges the
// flush — a sequential journal write plus a barrier — to the node's simdisk,
// so durability has a modelled cost.  Once the durable log grows past
// Config.CheckpointEvery records, Sync folds it into a fresh checkpoint
// (the live image re-encoded as records), bounding replay time.
//
// Crash discards the materialized image and the unsynced tail — exactly the
// state a power cut loses.  Recover rebuilds the image by replaying the
// checkpoint followed by the durable log; ids recorded in the log are
// restored verbatim (mem.Restore), so file handles held by clients across
// the outage keep working.
//
// See docs/BACKENDS.md for the record format and recovery semantics.
package wal

import (
	"fmt"
	"sync"

	"dpnfs/internal/metrics"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

// journalFile is the simdisk file id the log is charged against.  The
// maximum id cannot collide with inode numbers, and using one id makes the
// journal sequential on the modelled platter — the point of a WAL.
const journalFile = ^uint64(0)

// Config describes one WAL store.
type Config struct {
	// Name labels metrics and errors (typically the node name).
	Name string
	// Disk, when set, is charged for every log flush and checkpoint (a
	// sequential write of the encoded records plus a sync barrier).  Nil
	// means durability is tracked but free — unit tests.
	Disk *simdisk.Disk
	// CheckpointEvery bounds the durable log: once it holds at least this
	// many records, the next Sync folds it into a checkpoint.  Default
	// 4096; negative disables checkpointing.
	CheckpointEvery int
	// Metrics receives store_wal_* counters (nil is fine).
	Metrics *metrics.Registry
}

// Store is a write-ahead-logged store.
type Store struct {
	cfg Config

	mu sync.Mutex
	// img is the materialized state; nil while crashed.
	img *mem.Store
	// checkpoint + durable survive a crash; pending does not.
	checkpoint [][]byte
	durable    [][]byte
	pending    [][]byte
	pendingSz  int64
	// checkpointSum is a CRC32C trailer over the whole checkpoint image
	// (every encoded record, in order): per-record checksums catch flipped
	// bits, this catches a truncated record list, so a damaged checkpoint
	// fails loudly at Recover instead of replaying a partial image.
	checkpointSum uint32
	// tornArmed makes the next Crash persist only a prefix of the final
	// durable record (faults.TornWrite).  The record checksum then catches
	// the tear at Recover, which drops the record and counts it.
	tornArmed bool
	// logOff is the journal's append position on the disk.
	logOff int64
	// scratch is reused by the checkpoint's extent reads: every record is
	// XDR-encoded — which copies the data — before the next read, so the
	// buffer never escapes.  Guarded by mu.
	scratch []byte

	records   *metrics.Counter
	replays   *metrics.Counter
	ckptBytes *metrics.Counter
	tornDrops *metrics.Counter
}

var (
	_ store.Store        = (*Store)(nil)
	_ store.Recoverable  = (*Store)(nil)
	_ store.Corruptible  = (*Store)(nil)
	_ store.TornWriter   = (*Store)(nil)
	_ store.SummedReader = (*Store)(nil)
	_ store.Reclaimer    = (*Store)(nil)
)

// New returns an empty WAL store.
func New(cfg Config) *Store {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4096
	}
	if cfg.Name == "" {
		cfg.Name = "wal"
	}
	reg := cfg.Metrics
	return &Store{
		cfg: cfg,
		img: mem.New(),
		records: reg.CounterVec("store_wal_records_total",
			"WAL records appended (journalled mutations).", "node").With(cfg.Name),
		replays: reg.CounterVec("store_wal_replays_total",
			"WAL records replayed by Recover after a crash.", "node").With(cfg.Name),
		ckptBytes: reg.CounterVec("store_wal_checkpoint_bytes_total",
			"Bytes written re-encoding live state into checkpoints.", "node").With(cfg.Name),
		tornDrops: reg.CounterVec("store_wal_torn_writes_total",
			"Torn tail records detected by checksum and dropped at Recover.", "node").With(cfg.Name),
	}
}

// appendLocked journals r into the volatile tail, sealed with a CRC32C
// trailer so replay can tell a torn or rotted record from a good one.
// Caller holds s.mu and has already applied r to the image.
func (s *Store) appendLocked(r *record) {
	enc := xdr.AppendChecksum(xdr.Encode(r))
	s.pending = append(s.pending, enc)
	s.pendingSz += int64(len(enc))
	s.records.Inc()
}

// Root returns the root directory's id.
func (s *Store) Root() store.FileID { return 1 }

func (s *Store) image() (*mem.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return nil, store.ErrUnavailable
	}
	return s.img, nil
}

// Lookup resolves name within directory dir.
func (s *Store) Lookup(dir store.FileID, name string) (store.Attr, error) {
	img, err := s.image()
	if err != nil {
		return store.Attr{}, err
	}
	return img.Lookup(dir, name)
}

// LookupPath resolves a slash-separated path from the root.
func (s *Store) LookupPath(p string) (store.Attr, error) {
	img, err := s.image()
	if err != nil {
		return store.Attr{}, err
	}
	return img.LookupPath(p)
}

// GetAttr returns attributes of id.
func (s *Store) GetAttr(id store.FileID) (store.Attr, error) {
	img, err := s.image()
	if err != nil {
		return store.Attr{}, err
	}
	return img.GetAttr(id)
}

// ReadDir lists dir in lexical order.
func (s *Store) ReadDir(dir store.FileID) ([]string, error) {
	img, err := s.image()
	if err != nil {
		return nil, err
	}
	return img.ReadDir(dir)
}

// ReadAt reads up to len(b) bytes at off.
func (s *Store) ReadAt(id store.FileID, off int64, b []byte) (int, error) {
	img, err := s.image()
	if err != nil {
		return 0, err
	}
	return img.ReadAt(id, off, b)
}

// ReadSummedAt implements store.SummedReader on the materialized image.
func (s *Store) ReadSummedAt(id store.FileID, off int64, b []byte) (int, store.BlockSums, error) {
	img, err := s.image()
	if err != nil {
		return 0, store.BlockSums{}, err
	}
	return img.ReadSummedAt(id, off, b)
}

// Reclaim implements store.Reclaimer on the materialized image.  It
// journals nothing: replay never brings back a node that was unlinked when
// the log was cut, and one whose unlink was lost with the tail comes back
// from the log's records, not from the image.
func (s *Store) Reclaim(id store.FileID) error {
	img, err := s.image()
	if err != nil {
		return err
	}
	return img.Reclaim(id)
}

// Stats reports the number of live inodes (0 while crashed).
func (s *Store) Stats() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return 0
	}
	return s.img.Stats()
}

// Create makes a regular file in dir and journals it.
func (s *Store) Create(dir store.FileID, name string) (store.Attr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.Attr{}, store.ErrUnavailable
	}
	at, err := s.img.Create(dir, name)
	if err != nil {
		return at, err
	}
	s.appendLocked(&record{op: opCreate, dir: dir, id: at.ID, name: name})
	return at, nil
}

// Mkdir makes a directory in dir and journals it.
func (s *Store) Mkdir(dir store.FileID, name string) (store.Attr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.Attr{}, store.ErrUnavailable
	}
	at, err := s.img.Mkdir(dir, name)
	if err != nil {
		return at, err
	}
	s.appendLocked(&record{op: opMkdir, dir: dir, id: at.ID, name: name})
	return at, nil
}

// Remove unlinks name from dir and journals it.
func (s *Store) Remove(dir store.FileID, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.ErrUnavailable
	}
	if err := s.img.Remove(dir, name); err != nil {
		return err
	}
	s.appendLocked(&record{op: opRemove, dir: dir, name: name})
	return nil
}

// Rename moves srcName in srcDir to dstName in dstDir and journals it.
func (s *Store) Rename(srcDir store.FileID, srcName string, dstDir store.FileID, dstName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.ErrUnavailable
	}
	if err := s.img.Rename(srcDir, srcName, dstDir, dstName); err != nil {
		return err
	}
	s.appendLocked(&record{op: opRename, dir: srcDir, dir2: dstDir, name: srcName, name2: dstName})
	return nil
}

// Truncate sets the file size and journals it.
func (s *Store) Truncate(id store.FileID, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.ErrUnavailable
	}
	if err := s.img.Truncate(id, size); err != nil {
		return err
	}
	s.appendLocked(&record{op: opTruncate, id: id, size: size})
	return nil
}

// SetSize extends the file size and journals it.
func (s *Store) SetSize(id store.FileID, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return store.ErrUnavailable
	}
	if err := s.img.SetSize(id, size); err != nil {
		return err
	}
	s.appendLocked(&record{op: opSetSize, id: id, size: size})
	return nil
}

// WriteAt writes b at off and journals the bytes.
func (s *Store) WriteAt(id store.FileID, off int64, b []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return 0, store.ErrUnavailable
	}
	size, err := s.img.WriteAt(id, off, b)
	if err != nil {
		return size, err
	}
	// No defensive copy: appendLocked XDR-encodes the record — copying the
	// bytes — before we return, so the log never aliases the caller's buffer.
	s.appendLocked(&record{op: opWrite, id: id, off: off, data: b})
	return size, nil
}

// WriteSyntheticAt records a sizing-only write and journals it (no payload:
// synthetic bytes replay as synthetic).
func (s *Store) WriteSyntheticAt(id store.FileID, off, n int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.img == nil {
		return 0, store.ErrUnavailable
	}
	size, err := s.img.WriteSyntheticAt(id, off, n)
	if err != nil {
		return size, err
	}
	s.appendLocked(&record{op: opWriteSyn, id: id, off: off, size: n})
	return size, nil
}

// Sync makes every journalled mutation durable: the volatile tail joins the
// durable log, and the flush is charged to the disk as a sequential journal
// write plus a barrier.  When the durable log has outgrown
// Config.CheckpointEvery it is folded into a fresh checkpoint.  p may be
// nil (TCP transport: durability without simulated time).
func (s *Store) Sync(p *sim.Proc) error {
	s.mu.Lock()
	if s.img == nil {
		s.mu.Unlock()
		return store.ErrUnavailable
	}
	flushOff, flushBytes := s.logOff, s.pendingSz
	s.durable = append(s.durable, s.pending...)
	s.pending, s.pendingSz = nil, 0
	s.logOff += flushBytes

	var ckptOff, ckptBytes int64
	if s.cfg.CheckpointEvery > 0 && len(s.durable) >= s.cfg.CheckpointEvery {
		ckptBytes = s.checkpointLocked()
		ckptOff = s.logOff
		s.logOff += ckptBytes
	}
	s.mu.Unlock()

	// Charge the disk outside the lock: under simulation the proc yields
	// to the kernel here, and holding a Go mutex across that would wedge
	// other procs on this store.
	if flushBytes > 0 {
		s.cfg.Disk.Write(p, journalFile, flushOff, flushBytes)
	}
	if ckptBytes > 0 {
		s.cfg.Disk.Write(p, journalFile, ckptOff, ckptBytes)
	}
	s.cfg.Disk.Sync(p)
	return nil
}

// checkpointLocked re-encodes the live image as records, replacing the
// checkpoint and durable log, and returns the encoded size.  Unlinked
// nodes are reclaimed: they are not reachable, so they are not encoded.
func (s *Store) checkpointLocked() int64 {
	var recs [][]byte
	var bytes int64
	var sum uint32
	add := func(r *record) {
		enc := xdr.AppendChecksum(xdr.Encode(r))
		recs = append(recs, enc)
		sum = xdr.ChecksumUpdate(sum, enc)
		bytes += int64(len(enc))
	}
	// The allocator position comes first: replay must not re-issue ids
	// that once named now-reclaimed files (clients may hold stale handles).
	add(&record{op: opReserveID, id: s.img.LastID()})
	err := s.img.Walk(func(dir store.FileID, name string, at store.Attr) error {
		op := opCreate
		if at.IsDir {
			op = opMkdir
		}
		add(&record{op: op, dir: dir, id: at.ID, name: name})
		if at.IsDir {
			return nil
		}
		exts, err := s.img.Extents(at.ID)
		if err != nil {
			return err
		}
		for _, e := range exts {
			if int64(cap(s.scratch)) < e.Len {
				s.scratch = make([]byte, e.Len)
			}
			buf := s.scratch[:e.Len]
			if _, err := s.img.ReadAt(at.ID, e.Off, buf); err != nil {
				return err
			}
			add(&record{op: opWrite, id: at.ID, off: e.Off, data: buf})
		}
		if at.Size > 0 {
			add(&record{op: opSetSize, id: at.ID, size: at.Size})
		}
		return nil
	})
	if err != nil {
		// Walk callbacks above only fail on image corruption.
		panic(fmt.Sprintf("wal %s: checkpoint: %v", s.cfg.Name, err))
	}
	s.checkpoint = recs
	s.checkpointSum = sum
	s.durable = nil
	s.ckptBytes.Add(uint64(bytes))
	return bytes
}

// ArmTornWrite implements store.TornWriter: the next Crash persists only a
// prefix of the final durable record.
func (s *Store) ArmTornWrite() {
	s.mu.Lock()
	s.tornArmed = true
	s.mu.Unlock()
}

// Crash discards all volatile state: the materialized image and the
// unsynced tail.  Every operation fails with store.ErrUnavailable until
// Recover.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.img = nil
	s.pending, s.pendingSz = nil, 0
	if s.tornArmed {
		s.tornArmed = false
		if n := len(s.durable); n > 0 {
			// The tail of the last journal flush tore: only a prefix of its
			// final record reached the platter.  A copy, not a reslice — the
			// log must not alias a buffer anyone else could still grow.
			last := s.durable[n-1]
			torn := make([]byte, len(last)/2)
			copy(torn, last)
			s.durable[n-1] = torn
		}
	}
}

// Recover rebuilds the image by replaying the checkpoint followed by the
// durable log, and returns the number of records replayed.  Content
// records naming ids absent from the replayed namespace are skipped: they
// belong to files unlinked before the crash (their bytes were reclaimed
// with them).  Recovery is idempotent on a healthy store.
func (s *Store) Recover() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The checkpoint image's own trailer first: a checkpoint that lost
	// records (truncation, partial write) must fail loudly before any of it
	// replays, not reconstruct a silently partial namespace.
	var cksum uint32
	for _, enc := range s.checkpoint {
		cksum = xdr.ChecksumUpdate(cksum, enc)
	}
	if cksum != s.checkpointSum {
		return 0, fmt.Errorf("wal %s: checkpoint image checksum mismatch (%d records): %w",
			s.cfg.Name, len(s.checkpoint), xdr.ErrChecksum)
	}
	img := mem.New()
	replayed := 0
	for part, log := range [2][][]byte{s.checkpoint, s.durable} {
		for i, enc := range log {
			body, cerr := xdr.VerifyChecksum(enc)
			if cerr != nil {
				// A bad final record of the durable log is a torn write: the
				// crash cut the last journal flush short.  Drop it and count
				// the detection; its write is lost, although the flush was
				// acknowledged (faults.TornWrite tears the last durable
				// record).  Anywhere else, a checksum failure
				// means the log itself rotted, which nothing can repair.
				if part == 1 && i == len(log)-1 {
					s.tornDrops.Inc()
					s.durable = s.durable[:i]
					break
				}
				return replayed, fmt.Errorf("wal %s: corrupt record %d: %w", s.cfg.Name, replayed, cerr)
			}
			var r record
			if err := xdr.Decode(body, &r); err != nil {
				return replayed, fmt.Errorf("wal %s: corrupt record %d: %w", s.cfg.Name, replayed, err)
			}
			if err := r.apply(img); err != nil {
				return replayed, fmt.Errorf("wal %s: replay record %d (op %d): %w", s.cfg.Name, replayed, r.op, err)
			}
			replayed++
		}
	}
	s.img = img
	s.replays.Add(uint64(replayed))
	return replayed, nil
}

// CorruptChunk implements store.Corruptible on the materialized image: rot
// lands on the data blocks reads are served from, never on the journal.
func (s *Store) CorruptChunk(seed int64) bool {
	img, err := s.image()
	if err != nil {
		return false
	}
	return img.CorruptChunk(seed)
}

// MisdirectNextRead implements store.Corruptible on the materialized image.
func (s *Store) MisdirectNextRead(seed int64) bool {
	img, err := s.image()
	if err != nil {
		return false
	}
	return img.MisdirectNextRead(seed)
}

// Walk forwards to the materialized image; the scrubber enumerates files
// through this.
func (s *Store) Walk(fn func(dir store.FileID, name string, at store.Attr) error) error {
	img, err := s.image()
	if err != nil {
		return err
	}
	return img.Walk(fn)
}

// Extents forwards to the materialized image: the chunk-backed ranges whose
// block checksums a scrub pass verifies.
func (s *Store) Extents(id store.FileID) ([]mem.Extent, error) {
	img, err := s.image()
	if err != nil {
		return nil, err
	}
	return img.Extents(id)
}
