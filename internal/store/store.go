// Package store defines the repository interfaces every server in this
// repository builds on: Metadata for namespace operations and Content for
// file bytes.  Splitting the two mirrors the paper's premise
// (conf_hpdc_HildebrandH07 §3) that pNFS lets one client stack front
// heterogeneous storage systems — an MDS cares only about the namespace, a
// storage node only about object bytes, and either can be backed by a
// different implementation.
//
// Two implementations ship with the repo:
//
//   - store/mem: the historical in-memory store, volatile, timing-free.
//     The default backend, so all figures are unchanged.
//   - store/wal: a write-ahead-logged store — every mutation appends a
//     record, Sync makes the log durable (charged to the node's simdisk),
//     and Recover replays checkpoint+log after a crash.
//
// See docs/BACKENDS.md for the record format and recovery semantics.
package store

import (
	"errors"

	"dpnfs/internal/sim"
	"dpnfs/internal/xdr"
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
	// The unlinked node remains addressable by id (open-but-unlinked POSIX
	// semantics) until a durable store rebuilds itself from its log at
	// recovery, or until a caller that knows nothing addresses the id any
	// more reclaims it (Reclaimer): a storage daemon does, right after
	// IO-REMOVE drops the object's handle.  NFS servers and the PVFS2
	// metadata server never reclaim, so an open file outlives its unlink.
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
// corruption injection (docs/FAULTS.md "Corruption").  Both shipped
// backends implement it: wal forwards to its materialized image, modelling
// rot on the data blocks rather than the journal.
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

// ChunkSize is the block-checksum granule: stores keep one CRC32C per
// ChunkSize-aligned chunk of a file, and the NFS client's page cache one per
// block of the same size, so a chunk's sum can serve as the block's
// (docs/BACKENDS.md "Block checksums").
const ChunkSize = 64 << 10

// BlockSums are the checksums of a run of consecutive whole chunks: Sums[i]
// is xdr.ChecksumSalted(Salt0+i, chunk i).  The zero value carries none.
type BlockSums struct {
	Salt0 uint64
	Sums  []uint32
}

// SummedReader is implemented by backends that can hand a reader the chunk
// sums they verified while serving it.  It is optional, found by type
// assertion like Corruptible, so wrappers of Store keep compiling; ReadSummed
// falls back to ReadAt for stores without it.  store/mem implements it, and
// wal forwards it to its image.
type SummedReader interface {
	// ReadSummedAt is ReadAt that also returns the sums of the whole chunks
	// the read returned, each verified against the bytes copied into b.  The
	// run starts at the first chunk boundary at or after off and stops at the
	// first hole or partial chunk; a failed read returns no sums.
	ReadSummedAt(id FileID, off int64, b []byte) (int, BlockSums, error)
}

// ReadSummed reads through s's SummedReader when it has one, and through
// ReadAt, returning no sums, otherwise.
func ReadSummed(s Content, id FileID, off int64, b []byte) (int, BlockSums, error) {
	if sr, ok := s.(SummedReader); ok {
		return sr.ReadSummedAt(id, off, b)
	}
	n, err := s.ReadAt(id, off, b)
	return n, BlockSums{}, err
}

// SummedWriter is implemented by backends that can check a writer's chunk
// sums in the same pass that copies the bytes in.  It is optional, found by
// type assertion like SummedReader; WriteSummed falls back to a separate
// CheckSums pass for stores without it.  store/mem implements it.
type SummedWriter interface {
	// WriteSummedAt is WriteAt for bytes that come with the sums of their
	// whole chunks: a run from the first chunk boundary at or after off,
	// salted wherever the writer keeps the chunks (BlockSums).  Unless every
	// sum matches its chunk it stores nothing and returns ErrCorrupt; more
	// sums than whole chunks is ErrInval.
	WriteSummedAt(id FileID, off int64, b []byte, sums BlockSums) (int64, error)
}

// WriteSummed writes through s's SummedWriter when it has one, and through
// CheckSums and then WriteAt otherwise.  Without sums it is WriteAt.
func WriteSummed(s Content, id FileID, off int64, b []byte, sums BlockSums) (int64, error) {
	if sums.Sums == nil {
		return s.WriteAt(id, off, b)
	}
	if sw, ok := s.(SummedWriter); ok {
		return sw.WriteSummedAt(id, off, b, sums)
	}
	if err := CheckSums(off, b, sums); err != nil {
		return 0, err
	}
	return s.WriteAt(id, off, b)
}

// CheckSums verifies sums against b, the bytes at off: sum i must be
// xdr.ChecksumSalted(sums.Salt0+i, chunk i), chunk 0 starting at the first
// chunk boundary at or after off.  More sums than b has whole chunks is
// ErrInval, a mismatch ErrCorrupt.  Servers that forward a write without
// storing it check here, before the bytes leave them.
func CheckSums(off int64, b []byte, sums BlockSums) error {
	if len(sums.Sums) == 0 {
		return nil
	}
	head := SumsHead(off)
	if head+int64(len(sums.Sums))*ChunkSize > int64(len(b)) {
		return ErrInval
	}
	for i, sum := range sums.Sums {
		lo := head + int64(i)*ChunkSize
		if xdr.ChecksumSalted(sums.Salt0+uint64(i), b[lo:lo+ChunkSize]) != sum {
			return ErrCorrupt
		}
	}
	return nil
}

// SumsHead returns how many bytes of data at off come before the first
// chunk boundary at or after off: where the chunks that BlockSums cover
// begin.
func SumsHead(off int64) int64 { return (ChunkSize - off%ChunkSize) % ChunkSize }

// Reclaimer is implemented by backends that can release an unlinked node at
// once.  It is optional, found by type assertion like SummedReader.
// store/mem implements it, and wal forwards it to its image (an unlinked
// node is never replayed, so dropping it needs no record).
type Reclaimer interface {
	// Reclaim drops the unlinked node id and returns its storage; every
	// later operation on id fails with ErrNotExist.  A node still linked into
	// the namespace is refused with ErrInval, an unknown id with
	// ErrNotExist.
	Reclaim(id FileID) error
}

// TornWriter is implemented by journaling backends that can model a torn
// write: the next Crash persists only a prefix of the final durable record,
// which the record checksum then catches at Recover.
type TornWriter interface {
	ArmTornWrite()
}

// Recoverable is implemented by the durable backend, store/wal.
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
