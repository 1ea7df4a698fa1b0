// Package fserr maps between Go file-system errors (package store) and the
// numeric error codes carried in protocol replies, shared by the PVFS2 and
// NFSv4.1 wire formats.
//
// Paper mapping: the NFSv4 status codes of RFC 3530/5661 that the paper's
// prototype returns (e.g. the stale-handle errors its §6.4.4 failover path
// recovers from), collapsed to the subset both protocols in this
// repository need.
package fserr

import (
	"fmt"

	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// Errno is a wire-level error code.  OK is zero.
type Errno uint32

// XDR passes the code as one unsigned word.
func (e *Errno) XDR(f xdr.Filter) { f.U32((*uint32)(e)) }

// Wire error codes.
const (
	OK Errno = iota
	NoEnt
	Exist
	IsDir
	NotDir
	NotEmpty
	Inval
	Stale // handle no longer valid
	IO
	// Corrupt reports a data integrity failure: the server (or the client's
	// own wire-checksum verification) detected a block whose checksum does
	// not match its content.  Unlike IO it is known to be a property of one
	// stored copy, so clients retry briefly and then repair from a replica
	// rather than retrying forever (docs/FAULTS.md "Corruption").
	Corrupt
	// Unavailable reports that the store crashed under the request.  It
	// never reaches a client: each server answers it with rpc.StatusDown, as
	// if the request had gone to a down node, so the caller retries
	// (docs/FAULTS.md).  It maps both ways so that a conduit passing errors
	// between a daemon and a co-located server keeps the crash visible.
	Unavailable
)

// ToErrno converts a store (or nil) error into a wire code.
func ToErrno(err error) Errno {
	switch err {
	case nil:
		return OK
	case store.ErrNotExist:
		return NoEnt
	case store.ErrExist:
		return Exist
	case store.ErrIsDir:
		return IsDir
	case store.ErrNotDir:
		return NotDir
	case store.ErrNotEmpty:
		return NotEmpty
	case store.ErrInval:
		return Inval
	case store.ErrCorrupt:
		return Corrupt
	case store.ErrUnavailable:
		return Unavailable
	default:
		return IO
	}
}

// Err converts a wire code back to a Go error; OK yields nil.
func (e Errno) Err() error {
	switch e {
	case OK:
		return nil
	case NoEnt:
		return store.ErrNotExist
	case Exist:
		return store.ErrExist
	case IsDir:
		return store.ErrIsDir
	case NotDir:
		return store.ErrNotDir
	case NotEmpty:
		return store.ErrNotEmpty
	case Inval:
		return store.ErrInval
	case Stale:
		return ErrStale
	case Corrupt:
		return store.ErrCorrupt
	case Unavailable:
		return store.ErrUnavailable
	default:
		return ErrIO
	}
}

// ErrStale and ErrIO are protocol-level errors with no store counterpart.
var (
	ErrStale = fmt.Errorf("fserr: stale file handle")
	ErrIO    = fmt.Errorf("fserr: I/O error")
)
