package cluster

import (
	"strings"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
)

// Mount is the architecture-independent application view of one client:
// workloads are written once against this interface and run unchanged on
// all five architectures.
type Mount struct {
	cl   *Cluster
	node *simnet.Node
	nfsc *nfs.Client  // NFS-family architectures
	pv   *pvfs.Client // native PVFS2
}

// Node returns the client's simnet node.
func (m *Mount) Node() *simnet.Node { return m.node }

// mount performs protocol mount/handshake where the protocol has one.
func (m *Mount) mount(ctx *rpc.Ctx) error {
	if m.nfsc != nil {
		return m.nfsc.Mount(ctx)
	}
	return nil
}

// File is an open file on a Mount.
type File struct {
	m    *Mount
	nf   *nfs.File
	pf   *pvfs.File
	path string
}

// Create creates (or opens) a file.
func (m *Mount) Create(ctx *rpc.Ctx, path string) (*File, error) {
	if m.nfsc != nil {
		nf, err := m.nfsc.Create(ctx, path)
		if err != nil {
			return nil, err
		}
		return &File{m: m, nf: nf, path: path}, nil
	}
	pf, err := m.pv.Create(ctx, path)
	if err != nil {
		return nil, err
	}
	return &File{m: m, pf: pf, path: path}, nil
}

// Open opens an existing file.
func (m *Mount) Open(ctx *rpc.Ctx, path string) (*File, error) {
	if m.nfsc != nil {
		nf, err := m.nfsc.Open(ctx, path)
		if err != nil {
			return nil, err
		}
		return &File{m: m, nf: nf, path: path}, nil
	}
	pf, err := m.pv.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return &File{m: m, pf: pf, path: path}, nil
}

// Write stores data at off.
func (m *Mount) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	if f.nf != nil {
		return m.nfsc.Write(ctx, f.nf, off, data)
	}
	_, err := m.pv.Write(ctx, f.pf, off, data, false)
	return err
}

// Read fetches up to n bytes at off, returning the data and the byte count.
// The data is read-only (on NFS mounts it aliases the client page cache) and
// stays valid until the caller Releases it.
func (m *Mount) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	if f.nf != nil {
		return m.nfsc.Read(ctx, f.nf, off, n)
	}
	return m.pv.Read(ctx, f.pf, off, n, m.cl.Cfg.Real)
}

// Fsync forces data to stable storage.
func (m *Mount) Fsync(ctx *rpc.Ctx, f *File) error {
	if f.nf != nil {
		return m.nfsc.Fsync(ctx, f.nf)
	}
	return m.pv.Sync(ctx, f.pf)
}

// Close releases the file.  On NFS mounts this flushes and commits (the
// prototype's commit-on-close semantics, paper §5); PVFS2 leaves data in
// the storage nodes' buffers — only an explicit Fsync reaches the platter.
func (m *Mount) Close(ctx *rpc.Ctx, f *File) error {
	if f.nf != nil {
		return m.nfsc.Close(ctx, f.nf)
	}
	return nil
}

// Size returns the file size: the client view for NFS mounts, a metadata
// query (fan-out reconstruction) for PVFS2.
func (m *Mount) Size(ctx *rpc.Ctx, f *File) (int64, error) {
	if f.nf != nil {
		return f.nf.Size(), nil
	}
	return m.pv.GetAttr(ctx, f.pf)
}

// Stat refreshes attributes from the servers.
func (m *Mount) Stat(ctx *rpc.Ctx, f *File) (int64, error) {
	if f.nf != nil {
		at, err := m.nfsc.GetAttr(ctx, f.nf)
		if err != nil {
			return 0, err
		}
		return at.Size, nil
	}
	return m.pv.GetAttr(ctx, f.pf)
}

// Truncate sets the file size.
func (m *Mount) Truncate(ctx *rpc.Ctx, f *File, size int64) error {
	if f.nf != nil {
		return m.nfsc.Truncate(ctx, f.nf, size)
	}
	return m.pv.Truncate(ctx, f.pf, size)
}

// Mkdir creates a directory.
func (m *Mount) Mkdir(ctx *rpc.Ctx, path string) error {
	if m.nfsc != nil {
		return m.nfsc.Mkdir(ctx, path)
	}
	return m.pv.Mkdir(ctx, path)
}

// Remove unlinks a file or empty directory.
func (m *Mount) Remove(ctx *rpc.Ctx, path string) error {
	if m.nfsc != nil {
		return m.nfsc.Remove(ctx, path)
	}
	return m.pv.Remove(ctx, path)
}

// Rename renames src to dst within directory dirPath, replacing dst if it
// exists (a replaced file's objects are removed from the storage nodes).
func (m *Mount) Rename(ctx *rpc.Ctx, dirPath, src, dst string) error {
	if m.nfsc != nil {
		return m.nfsc.Rename(ctx, dirPath, src, dst)
	}
	dir := m.pv.RootHandle()
	for _, name := range strings.Split(strings.Trim(dirPath, "/"), "/") {
		if name == "" {
			continue
		}
		h, _, err := m.pv.LookupH(ctx, dir, name)
		if err != nil {
			return err
		}
		dir = h
	}
	return m.pv.RenameH(ctx, dir, src, dst)
}

// ReadDir lists a directory.
func (m *Mount) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) {
	if m.nfsc != nil {
		return m.nfsc.ReadDir(ctx, path)
	}
	return m.pv.ReadDir(ctx, path)
}

// PNFS reports whether this mount holds pNFS layouts.
func (m *Mount) PNFS() bool { return m.nfsc != nil && m.nfsc.PNFS() }

// DropCaches discards client-side caches (no-op for cacheless PVFS2).
func (m *Mount) DropCaches() {
	if m.nfsc != nil {
		m.nfsc.DropCaches()
	}
}
