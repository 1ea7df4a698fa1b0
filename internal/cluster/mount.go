package cluster

import (
	"errors"
	"strings"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
)

// Mount is the architecture-independent application view of one client:
// workloads are written once against this surface and run unchanged on all
// five architectures.  New chooses the client protocol once — an NFSv4.1
// client on the four NFS architectures, the PVFS2 client library on pvfs2 —
// and every method is one delegation to it.
type Mount struct {
	node *simnet.Node
	p    protocol
}

// protocol is the Mount surface as one client protocol implements it
// (nfsMount, pvfsMount), plus the mount handshake Run performs first, where
// the protocol has one.
type protocol interface {
	mount(ctx *rpc.Ctx) error
	Create(ctx *rpc.Ctx, path string) (*File, error)
	Open(ctx *rpc.Ctx, path string) (*File, error)
	Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error
	Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error)
	Fsync(ctx *rpc.Ctx, f *File) error
	Close(ctx *rpc.Ctx, f *File) error
	Size(ctx *rpc.Ctx, f *File) (int64, error)
	Stat(ctx *rpc.Ctx, f *File) (int64, error)
	Mkdir(ctx *rpc.Ctx, path string) error
	Remove(ctx *rpc.Ctx, path string) error
	Rename(ctx *rpc.Ctx, dirPath, src, dst string) error
	ReadDir(ctx *rpc.Ctx, path string) ([]string, error)
	PNFS() bool
	DropCaches()
}

// File is an open file on a Mount: the protocol's own open file (*nfs.File
// or *pvfs.File).
type File struct{ of any }

// opened wraps a protocol's open result.
func opened(of any, err error) (*File, error) {
	if err != nil {
		return nil, err
	}
	return &File{of}, nil
}

// Node returns the client's simnet node.
func (m *Mount) Node() *simnet.Node { return m.node }

// Create opens a file, creating it if absent, on every architecture.
func (m *Mount) Create(ctx *rpc.Ctx, path string) (*File, error) { return m.p.Create(ctx, path) }

// Open opens an existing file.
func (m *Mount) Open(ctx *rpc.Ctx, path string) (*File, error) { return m.p.Open(ctx, path) }

// Write stores data at off.
func (m *Mount) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	return m.p.Write(ctx, f, off, data)
}

// Read fetches up to n bytes at off, returning the data and the byte count.
// The data is read-only (on NFS mounts it aliases the client page cache) and
// stays valid until the caller Releases it.
func (m *Mount) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	return m.p.Read(ctx, f, off, n)
}

// Fsync forces data to stable storage.
func (m *Mount) Fsync(ctx *rpc.Ctx, f *File) error { return m.p.Fsync(ctx, f) }

// Close releases the file.  On NFS mounts this flushes and commits (the
// prototype's commit-on-close semantics, paper §5); PVFS2 leaves data in
// the storage nodes' buffers — only an explicit Fsync reaches the platter.
func (m *Mount) Close(ctx *rpc.Ctx, f *File) error { return m.p.Close(ctx, f) }

// Size returns the file size: the client view for NFS mounts, a metadata
// query (fan-out reconstruction) for PVFS2.
func (m *Mount) Size(ctx *rpc.Ctx, f *File) (int64, error) { return m.p.Size(ctx, f) }

// Stat refreshes attributes from the servers.
func (m *Mount) Stat(ctx *rpc.Ctx, f *File) (int64, error) { return m.p.Stat(ctx, f) }

// Mkdir creates a directory.
func (m *Mount) Mkdir(ctx *rpc.Ctx, path string) error { return m.p.Mkdir(ctx, path) }

// Remove unlinks a file or empty directory.
func (m *Mount) Remove(ctx *rpc.Ctx, path string) error { return m.p.Remove(ctx, path) }

// Rename renames src to dst within directory dirPath, replacing dst if it
// exists (a replaced file's objects are removed from the storage nodes).
func (m *Mount) Rename(ctx *rpc.Ctx, dirPath, src, dst string) error {
	return m.p.Rename(ctx, dirPath, src, dst)
}

// ReadDir lists a directory.
func (m *Mount) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) { return m.p.ReadDir(ctx, path) }

// PNFS reports whether this mount holds pNFS layouts.
func (m *Mount) PNFS() bool { return m.p.PNFS() }

// DropCaches discards client-side caches (no-op for cacheless PVFS2).
func (m *Mount) DropCaches() { m.p.DropCaches() }

// nfsMount is the Mount of direct-pnfs, pnfs-2tier, pnfs-3tier and nfsv4:
// an NFSv4.1 client, whose namespace verbs and caches it promotes as they are.
type nfsMount struct{ *nfs.Client }

func (m nfsMount) mount(ctx *rpc.Ctx) error { return m.Mount(ctx) }

func (m nfsMount) Create(ctx *rpc.Ctx, path string) (*File, error) {
	return opened(m.Client.Create(ctx, path))
}

func (m nfsMount) Open(ctx *rpc.Ctx, path string) (*File, error) {
	return opened(m.Client.Open(ctx, path))
}

func (m nfsMount) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	return m.Client.Write(ctx, f.of.(*nfs.File), off, data)
}

func (m nfsMount) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	return m.Client.Read(ctx, f.of.(*nfs.File), off, n)
}

func (m nfsMount) Fsync(ctx *rpc.Ctx, f *File) error { return m.Client.Fsync(ctx, f.of.(*nfs.File)) }

func (m nfsMount) Close(ctx *rpc.Ctx, f *File) error { return m.Client.Close(ctx, f.of.(*nfs.File)) }

func (nfsMount) Size(_ *rpc.Ctx, f *File) (int64, error) { return f.of.(*nfs.File).Size(), nil }

func (m nfsMount) Stat(ctx *rpc.Ctx, f *File) (int64, error) {
	at, err := m.GetAttr(ctx, f.of.(*nfs.File))
	return at.Size, err
}

// pvfsMount is the Mount of native PVFS2: the client library, whose
// path-taking namespace verbs it promotes.  It has no mount handshake and
// no caches, and asks the daemons for materialized bytes when real is set
// (Config.Real).
type pvfsMount struct {
	*pvfs.Client
	real bool
}

func (pvfsMount) mount(*rpc.Ctx) error { return nil }

// Create answers an existing path with an open: PVFS2's wire CREATE is
// exclusive, the Mount's Create is not (NFS OPEN with create never fails on
// an existing file).
func (m pvfsMount) Create(ctx *rpc.Ctx, path string) (*File, error) {
	pf, err := m.Client.Create(ctx, path)
	if errors.Is(err, store.ErrExist) {
		pf, err = m.Client.Open(ctx, path)
	}
	return opened(pf, err)
}

func (m pvfsMount) Open(ctx *rpc.Ctx, path string) (*File, error) {
	return opened(m.Client.Open(ctx, path))
}

func (m pvfsMount) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	_, err := m.Client.Write(ctx, f.of.(*pvfs.File), off, data, false)
	return err
}

func (m pvfsMount) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	return m.Client.Read(ctx, f.of.(*pvfs.File), off, n, m.real)
}

func (m pvfsMount) Fsync(ctx *rpc.Ctx, f *File) error { return m.Sync(ctx, f.of.(*pvfs.File)) }

func (pvfsMount) Close(*rpc.Ctx, *File) error { return nil }

func (m pvfsMount) Size(ctx *rpc.Ctx, f *File) (int64, error) {
	return m.GetAttr(ctx, f.of.(*pvfs.File))
}

func (m pvfsMount) Stat(ctx *rpc.Ctx, f *File) (int64, error) { return m.Size(ctx, f) }

// Rename resolves dirPath with one LOOKUP-H from the root (none for the
// root itself), then renames within the directory it reached.
func (m pvfsMount) Rename(ctx *rpc.Ctx, dirPath, src, dst string) error {
	dir := m.RootHandle()
	if rel := strings.Trim(dirPath, "/"); rel != "" {
		h, _, _, err := m.LookupH(ctx, dir, rel)
		if err != nil {
			return err
		}
		dir = h
	}
	return m.RenameH(ctx, dir, src, dst)
}

func (pvfsMount) PNFS() bool { return false }

func (pvfsMount) DropCaches() {}
