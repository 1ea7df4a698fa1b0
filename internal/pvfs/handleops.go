package pvfs

import (
	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// Handle-based namespace procedures.  The NFS servers that export PVFS2
// (the plain NFSv4 server and the two/three-tier pNFS data and metadata
// servers) resolve names against a directory filehandle, so each namespace
// verb has two procedure numbers — one addressed by path, one by directory
// handle — over a single body in MetaServer (server.go): the path procedure
// walks from the root to the same (directory, name) the handle procedure is
// given, then both run the verb's one implementation.
const (
	ProcLookupH uint32 = iota + 50
	ProcCreateH
	ProcMkdirH
	ProcRemoveH
	ProcRenameH
	ProcReadDirH
	ProcPlacementH
)

// PlacementRep is the reply to ProcPlacementH: where the file's bytes live
// right now.  Data servers that export PVFS2 use it to re-resolve a file
// after a migration generation bump.
type PlacementRep struct {
	Errno fserr.Errno
	Data  Handle
	Dist  DistParams
}

func (r *PlacementRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(uint64(r.Data))
	r.Dist.MarshalXDR(e)
}

func (r *PlacementRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	r.Data = Handle(h)
	return r.Dist.UnmarshalXDR(d)
}

// DirOpArgs addresses a name within a directory by handle.
type DirOpArgs struct {
	Dir  Handle
	Name string
}

func (a *DirOpArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Dir))
	e.String(a.Name)
}

func (a *DirOpArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Dir = Handle(h)
	a.Name, err = d.String()
	return err
}

// RenameHArgs renames Src to Dst within directory Dir.
type RenameHArgs struct {
	Dir      Handle
	Src, Dst string
}

func (a *RenameHArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Dir))
	e.String(a.Src)
	e.String(a.Dst)
}

func (a *RenameHArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Dir = Handle(h)
	if a.Src, err = d.String(); err != nil {
		return err
	}
	a.Dst, err = d.String()
	return err
}

// RootHandle returns the namespace root handle.
func (m *MetaServer) RootHandle() Handle { return Handle(m.store.Root()) }

// ---- client-side wrappers ----

// RootHandle returns the file system root handle (well-known: the MDS
// namespace root is always inode 1).
func (c *Client) RootHandle() Handle { return 1 }

// OpenHandle builds an open file reference from a handle without a metadata
// round trip: the distribution is a file-system-wide constant, so data
// servers exporting PVFS2 can address any file directly.  Files that may
// have been migrated need OpenPlaced with a fresh placement instead.
func (c *Client) OpenHandle(h Handle, dist DistParams) *File {
	return c.newFile(h, h, dist)
}

// OpenPlaced builds an open file reference from an explicit placement
// (data handle + distribution), as returned by Lookup/Create/PlacementH.
func (c *Client) OpenPlaced(h, data Handle, dist DistParams) *File {
	return c.newFile(h, data, dist)
}

// PlacementH fetches the file's current data placement from the MDS.
func (c *Client) PlacementH(ctx *rpc.Ctx, h Handle) (Handle, DistParams, error) {
	var rep PlacementRep
	if err := c.metaCall(ctx, ProcPlacementH, &PlacementHArgs{Handle: h}, &rep, &rep.Errno); err != nil {
		return 0, DistParams{}, err
	}
	return rep.Data, rep.Dist, nil
}

// LookupH resolves name within the directory handle.
func (c *Client) LookupH(ctx *rpc.Ctx, dir Handle, name string) (Handle, bool, error) {
	var rep LookupRep
	if err := c.metaCall(ctx, ProcLookupH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno); err != nil {
		return 0, false, err
	}
	return rep.Handle, rep.IsDir, nil
}

// CreateH creates a file within the directory handle.
func (c *Client) CreateH(ctx *rpc.Ctx, dir Handle, name string) (*File, error) {
	var rep CreateRep
	if err := c.metaCall(ctx, ProcCreateH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	return c.newFile(rep.Handle, rep.Data, rep.Dist), nil
}

// MkdirH creates a directory within the directory handle.
func (c *Client) MkdirH(ctx *rpc.Ctx, dir Handle, name string) (Handle, error) {
	var rep MkdirRep
	err := c.metaCall(ctx, ProcMkdirH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno)
	return rep.Handle, err
}

// RemoveH unlinks name within the directory handle.
func (c *Client) RemoveH(ctx *rpc.Ctx, dir Handle, name string) error {
	var rep RemoveRep
	return c.metaCall(ctx, ProcRemoveH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno)
}

// RenameH renames src to dst within the directory handle.
func (c *Client) RenameH(ctx *rpc.Ctx, dir Handle, src, dst string) error {
	var rep RemoveRep
	return c.metaCall(ctx, ProcRenameH, &RenameHArgs{Dir: dir, Src: src, Dst: dst}, &rep, &rep.Errno)
}

// ReadDirH lists the directory handle.
func (c *Client) ReadDirH(ctx *rpc.Ctx, dir Handle) ([]string, error) {
	var rep ReadDirRep
	if err := c.metaCall(ctx, ProcReadDirH, &ReadDirHArgs{Handle: dir}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	return rep.Names, nil
}

// GetAttrH fetches attributes by handle (size and change reconstruction
// fan-out for files).
func (c *Client) GetAttrH(ctx *rpc.Ctx, h Handle) (bool, int64, uint64, error) {
	var rep GetAttrRep
	if err := c.metaCall(ctx, ProcGetAttr, &GetAttrArgs{Handle: h}, &rep, &rep.Errno); err != nil {
		return false, 0, 0, err
	}
	return rep.IsDir, rep.Size, rep.Change, nil
}

// TruncateH sets the logical size by handle.
func (c *Client) TruncateH(ctx *rpc.Ctx, h Handle, size int64) error {
	var rep TruncateRep
	return c.metaCall(ctx, ProcTruncate, &TruncateArgs{Handle: h, Size: size}, &rep, &rep.Errno)
}

// Mapper exposes the file's stripe mapper (used by layout translation
// tests).
func (f *File) Mapper() stripe.Mapper { return f.mapper }
