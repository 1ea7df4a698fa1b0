package pvfs

import (
	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// The metadata service's namespace procedures.  Each names its entry as
// PVFS2 does, from a directory handle: LOOKUP-H, CREATE-H, MKDIR-H and
// REMOVE-H take a path relative to that directory (DirOpArgs), which
// MetaServer.walk resolves, and each runs its verb's one body in MetaServer
// (server.go).  The NFS servers that export PVFS2 send one name from the
// directory filehandle they hold; the native client sends its whole path
// from the root handle.
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
// right now.  A client asks for it when a daemon answers Stale for the
// placement it holds (the file moved), and an export for a file no reply
// of its own placed.
type PlacementRep struct {
	Errno fserr.Errno
	Data  Handle
	Dist  DistParams
}

func (r *PlacementRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Data.XDR(f)
	r.Dist.XDR(f)
}

// DirOpArgs addresses an entry by a directory handle and a path relative to
// it: one name, or several separated by '/'.
type DirOpArgs struct {
	Dir  Handle
	Name string
}

func (a *DirOpArgs) XDR(f xdr.Filter) {
	a.Dir.XDR(f)
	f.Text(&a.Name)
}

// RenameHArgs renames Src to Dst within directory Dir.
type RenameHArgs struct {
	Dir      Handle
	Src, Dst string
}

func (a *RenameHArgs) XDR(f xdr.Filter) {
	a.Dir.XDR(f)
	f.Text(&a.Src)
	f.Text(&a.Dst)
}

// ---- client-side wrappers ----

// RootHandle returns the file system root handle (well-known: the MDS
// namespace root is always inode 1).
func (c *Client) RootHandle() Handle { return 1 }

// PlacementH fetches the file's current data placement from the MDS.
func (c *Client) PlacementH(ctx *rpc.Ctx, h Handle) (Placement, error) {
	var rep PlacementRep
	err := c.metaCall(ctx, ProcPlacementH, &PlacementHArgs{Handle: h}, &rep, &rep.Errno)
	return Placement{rep.Data, rep.Dist}, err
}

// LookupH resolves name within the directory handle: the entry's handle,
// a file's placement (a directory has none) and whether it is a directory.
func (c *Client) LookupH(ctx *rpc.Ctx, dir Handle, name string) (Handle, Placement, bool, error) {
	var rep LookupRep
	err := c.metaCall(ctx, ProcLookupH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno)
	return rep.Handle, Placement{rep.Data, rep.Dist}, rep.IsDir, err
}

// CreateH creates a file within the directory handle and returns its handle
// and placement.
func (c *Client) CreateH(ctx *rpc.Ctx, dir Handle, name string) (Handle, Placement, error) {
	var rep CreateRep
	err := c.metaCall(ctx, ProcCreateH, &DirOpArgs{Dir: dir, Name: name}, &rep, &rep.Errno)
	return rep.Handle, Placement{rep.Data, rep.Dist}, err
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
