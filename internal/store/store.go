// Package store defines the repository interfaces every server in this
// repository builds on: Metadata for namespace operations and Content for
// file bytes.  Splitting the two mirrors the paper's premise
// (conf_hpdc_HildebrandH07 §3) that pNFS lets one client stack front
// heterogeneous storage systems — an MDS cares only about the namespace, a
// storage node only about object bytes, and either can be backed by a
// different implementation.
//
// Three implementations ship with the repo:
//
//   - store/mem: the historical in-memory store, volatile, timing-free.
//     The default backend, so all figures are unchanged.
//   - store/wal: a write-ahead-logged store — every mutation appends a
//     record, Sync makes the log durable (charged to the node's simdisk),
//     and Recover replays checkpoint+log after a crash.
//   - store/cached: mem-speed front over a wal back; dirty data is staged
//     volatile and journalled on Sync, matching NFS unstable-WRITE+COMMIT
//     semantics.
//
// See docs/BACKENDS.md for the record format and recovery semantics.
package store

import (
	"errors"

	"dpnfs/internal/sim"
)

// FileID identifies an inode within one store.  IDs are stable across crash
// and recovery: clients hold them inside file handles.
type FileID uint64

// Attr is the attribute set exposed through the protocols.
type Attr struct {
	ID    FileID
	IsDir bool
	Size  int64
	// Change is a mtime/ctime stand-in: bumped on every data/metadata
	// change.  Virtual wall-clock time lives in the simulation, not here,
	// so this is a counter rather than a timestamp.
	Change uint64
}

// Errors mirror the POSIX causes the protocols care about.  internal/fserr
// maps these to wire errnos by identity, so implementations must return
// exactly these values.
var (
	ErrNotExist = errors.New("store: no such file or directory")
	ErrExist    = errors.New("store: file exists")
	ErrIsDir    = errors.New("store: is a directory")
	ErrNotDir   = errors.New("store: not a directory")
	ErrNotEmpty = errors.New("store: directory not empty")
	ErrInval    = errors.New("store: invalid argument")
	// ErrUnavailable is returned by a durable store between Crash and
	// Recover: the node is down and its volatile state is gone.
	ErrUnavailable = errors.New("store: backend unavailable (crashed, not yet recovered)")
	// ErrCorrupt is returned when a read touches data whose block checksum
	// no longer matches — bit rot, a torn write, or a misdirected read
	// (docs/BACKENDS.md "Block checksums").  It maps to the fserr.Corrupt
	// wire code so clients can distinguish "bad bytes" from "bad node" and
	// read-repair from a replica.
	ErrCorrupt = errors.New("store: data integrity error (checksum mismatch)")
)

// Metadata is the namespace repository: directories, names, attributes.
// The PVFS2 metadata server and the NFSv4 MDS speak only this interface.
type Metadata interface {
	// Root returns the root directory's id.
	Root() FileID
	// Lookup resolves name within directory dir.
	Lookup(dir FileID, name string) (Attr, error)
	// LookupPath resolves a slash-separated path from the root.
	LookupPath(p string) (Attr, error)
	// GetAttr returns attributes of id.
	GetAttr(id FileID) (Attr, error)
	// Create makes a regular file in dir; ErrExist if the name is taken.
	Create(dir FileID, name string) (Attr, error)
	// Mkdir makes a directory in dir.
	Mkdir(dir FileID, name string) (Attr, error)
	// Remove unlinks name from dir.  Non-empty directories are refused.
	// The unlinked node remains addressable by id until the store is
	// checkpointed or recovered (open-but-unlinked POSIX semantics).
	Remove(dir FileID, name string) error
	// Rename moves srcName in srcDir to dstName in dstDir, replacing a
	// same-kind target if present (empty directories only).
	Rename(srcDir FileID, srcName string, dstDir FileID, dstName string) error
	// ReadDir lists dir in lexical order.
	ReadDir(dir FileID) ([]string, error)
	// Truncate sets the file size, discarding or zero-extending content.
	Truncate(id FileID, size int64) error
	// SetSize extends the file size if size is larger (pNFS LAYOUTCOMMIT
	// semantics: the client reports a possibly-extended size after direct
	// I/O).
	SetSize(id FileID, size int64) error
}

// Content is the file-bytes repository.  Storage daemons speak only this
// interface (plus whatever Metadata calls they need to name their objects).
type Content interface {
	// ReadAt reads up to len(b) bytes at off; short reads happen at EOF.
	// Holes read as zeros.
	ReadAt(id FileID, off int64, b []byte) (int, error)
	// WriteAt writes b at off, extending the file as needed, and returns
	// the new size.
	WriteAt(id FileID, off int64, b []byte) (int64, error)
	// WriteSyntheticAt records a write of n zero bytes at off without
	// storing them.  Benchmarks move simulated terabytes through this path.
	WriteSyntheticAt(id FileID, off, n int64) (int64, error)
	Syncer
	// Stats reports the number of live (namespace-reachable) inodes.
	Stats() (inodes int)
}

// Syncer is the durability point.  p may be nil (TCP transport: no
// simulated time to charge).  For mem this is a no-op; for wal it makes all
// acknowledged mutations crash-durable and charges the journal flush to the
// node's simdisk.
type Syncer interface {
	Sync(p *sim.Proc) error
}

// Store combines both repositories — what the in-process servers use, since
// every shipped implementation provides both.
type Store interface {
	Metadata
	Content
}

// Corruptible is implemented by backends that support deterministic
// corruption injection (docs/FAULTS.md "Corruption").  All three shipped
// backends implement it: wal and cached forward to their materialized
// image, modelling rot on the data blocks rather than the journal.
type Corruptible interface {
	// CorruptChunk flips one stored byte, chosen deterministically from
	// seed, without updating the block's checksum.  It reports whether any
	// materialized chunk was eligible.
	CorruptChunk(seed int64) bool
	// MisdirectNextRead arms a one-shot wrong-block read against a file
	// chosen deterministically from seed, reporting whether a victim with
	// at least two materialized blocks was found.
	MisdirectNextRead(seed int64) bool
}

// TornWriter is implemented by journaling backends that can model a torn
// write: the next Crash persists only a prefix of the final durable record,
// which the record checksum then catches at Recover.
type TornWriter interface {
	ArmTornWrite()
}

// Recoverable is implemented by durable backends (store/wal, store/cached).
// The faults engine calls Crash when a storage node dies and Recover when
// it restarts.
type Recoverable interface {
	// Crash discards all volatile state: the materialized namespace and
	// any unsynced mutations.  Until Recover, every operation fails with
	// ErrUnavailable.
	Crash()
	// Recover rebuilds the store by replaying the checkpoint and durable
	// log, returning the number of records replayed.
	Recover() (replayed int, err error)
}
