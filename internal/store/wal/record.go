package wal

import (
	"errors"
	"fmt"

	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

// Record opcodes.  The on-log encoding is part of docs/BACKENDS.md; extend
// by appending, never by renumbering.
const (
	opCreate    = uint32(iota + 1) // dir, id, name
	opMkdir                        // dir, id, name
	opRemove                       // dir, name
	opRename                       // dir (src), dir2 (dst), name (src), name2 (dst)
	opWrite                        // id, off, data
	opWriteSyn                     // id, off, size (=n zero bytes, no payload)
	opTruncate                     // id, size
	opSetSize                      // id, size
	opReserveID                    // id (allocator position; checkpoint only)
)

// record is one logged mutation.  All fields are always encoded — the
// fixed layout costs a few words per record and keeps decode trivial.
type record struct {
	op        uint32
	dir, dir2 store.FileID
	id        store.FileID
	name      string
	name2     string
	off, size int64
	data      []byte
}

// XDR passes r in its on-log order: op, dir, dir2, id, off, size, name,
// name2, data.
func (r *record) XDR(f xdr.Filter) {
	f.U32(&r.op)
	f.U64((*uint64)(&r.dir))
	f.U64((*uint64)(&r.dir2))
	f.U64((*uint64)(&r.id))
	f.I64(&r.off)
	f.I64(&r.size)
	f.Text(&r.name)
	f.Text(&r.name2)
	f.Blob(&r.data)
}

// apply replays r against img.  Content records for ids missing from the
// namespace are tolerated: the file was unlinked before the crash and the
// checkpoint reclaimed it, but its tail-of-log writes survive.
func (r *record) apply(img *mem.Store) error {
	switch r.op {
	case opCreate:
		_, err := img.Restore(r.dir, r.name, r.id, false)
		return err
	case opMkdir:
		_, err := img.Restore(r.dir, r.name, r.id, true)
		return err
	case opRemove:
		return img.Remove(r.dir, r.name)
	case opRename:
		return img.Rename(r.dir, r.name, r.dir2, r.name2)
	case opWrite:
		_, err := img.WriteAt(r.id, r.off, r.data)
		return tolerateUnlinked(err)
	case opWriteSyn:
		_, err := img.WriteSyntheticAt(r.id, r.off, r.size)
		return tolerateUnlinked(err)
	case opTruncate:
		return tolerateUnlinked(img.Truncate(r.id, r.size))
	case opSetSize:
		return tolerateUnlinked(img.SetSize(r.id, r.size))
	case opReserveID:
		img.ReserveID(r.id)
		return nil
	default:
		return fmt.Errorf("unknown opcode %d", r.op)
	}
}

func tolerateUnlinked(err error) error {
	if errors.Is(err, store.ErrNotExist) {
		return nil
	}
	return err
}
