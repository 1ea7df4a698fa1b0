package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
)

// Which backend has which role, held at compile time; the absent roles are
// held by TestBackendsWithoutARoleStayWithoutIt.
var (
	_ nfs.Backend      = (*directDSBackend)(nil)
	_ nfs.Backend      = (*directMDSBackend)(nil)
	_ nfs.Namespace    = (*directMDSBackend)(nil)
	_ nfs.LayoutSource = (*directMDSBackend)(nil)
	_ nfs.Backend      = (*exportBackend)(nil)
	_ nfs.Namespace    = (*exportBackend)(nil)
	_ nfs.Backend      = blindMDSBackend{}
	_ nfs.Namespace    = blindMDSBackend{}
	_ nfs.LayoutSource = blindMDSBackend{}
)

// TestBackendsWithoutARoleStayWithoutIt: a Direct-pNFS data server has no
// namespace and no layouts, and the export behind the plain NFSv4 server and
// the two/three-tier data servers has no layouts — the NFS server answers
// for the absent role itself, so a method stubbed back onto one of these
// types would silently change who answers.
func TestBackendsWithoutARoleStayWithoutIt(t *testing.T) {
	var ds nfs.Backend = &directDSBackend{}
	if _, ok := ds.(nfs.Namespace); ok {
		t.Error("directDSBackend must not be an nfs.Namespace")
	}
	if _, ok := ds.(nfs.LayoutSource); ok {
		t.Error("directDSBackend must not be an nfs.LayoutSource")
	}
	var export nfs.Backend = &exportBackend{}
	if _, ok := export.(nfs.LayoutSource); ok {
		t.Error("exportBackend (NFSv4 server, 2/3-tier data servers) must not be an nfs.LayoutSource")
	}
}

// TestRenameOverFileRemovesItsObjects: RENAME onto an existing file unlinks
// that file, so its stripe objects must leave every storage daemon the way a
// REMOVE's do — while a rename onto itself, or one the namespace refuses,
// leaves every object alone.
func TestRenameOverFileRemovesItsObjects(t *testing.T) {
	fill := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7) + salt
		}
		return b
	}
	aBytes, bBytes := fill(300_000, 1), fill(200_000, 2)
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			ns := cl.PVFSMeta.Namespace()
			handle := func(path string) pvfs.Handle {
				at, err := ns.LookupPath(path)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				return pvfsHandle(at.ID)
			}
			// stored sums the object sizes the daemons hold for h.
			stored := func(h pvfs.Handle) (total int64) {
				for _, m := range cl.members {
					total += m.storage.ObjectSize(h)
				}
				return total
			}
			_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				write := func(path string, data []byte) error {
					f, err := m.Create(ctx, path)
					if err != nil {
						return err
					}
					if err := m.Write(ctx, f, 0, payload.Real(data)); err != nil {
						return err
					}
					return m.Close(ctx, f)
				}
				if err := errors.Join(write("/a", aBytes), write("/b", bBytes),
					m.Mkdir(ctx, "/full"), write("/full/x", bBytes), m.Mkdir(ctx, "/empty")); err != nil {
					return fmt.Errorf("setup: %w", err)
				}
				a, oldB, x := handle("/a"), handle("/b"), handle("/full/x")
				if stored(oldB) != int64(len(bBytes)) {
					return fmt.Errorf("setup: daemons hold %d bytes of /b, want %d", stored(oldB), len(bBytes))
				}

				if err := m.Rename(ctx, "/", "a", "a"); err != nil {
					return fmt.Errorf("rename onto itself: %w", err)
				}
				if err := m.Rename(ctx, "/", "a", "full"); err != store.ErrIsDir {
					return fmt.Errorf("rename of a file onto a directory: %v, want ErrIsDir", err)
				}
				if err := m.Rename(ctx, "/", "empty", "full"); err != store.ErrNotEmpty {
					return fmt.Errorf("rename onto a non-empty directory: %v, want ErrNotEmpty", err)
				}
				if stored(a) != int64(len(aBytes)) || stored(oldB) != int64(len(bBytes)) || stored(x) != int64(len(bBytes)) {
					return fmt.Errorf("no-op and refused renames touched objects: a=%d b=%d full/x=%d", stored(a), stored(oldB), stored(x))
				}

				if err := m.Rename(ctx, "/", "a", "b"); err != nil {
					return fmt.Errorf("rename a -> b: %w", err)
				}
				for i, m := range cl.members {
					if got := m.storage.ObjectSize(oldB); got != 0 {
						t.Errorf("storage node %d still holds %d bytes of the replaced file", i, got)
					}
				}
				if handle("/b") != a || stored(a) != int64(len(aBytes)) {
					return fmt.Errorf("/b is handle %d holding %d bytes, want a's handle %d with %d", handle("/b"), stored(a), a, len(aBytes))
				}
				if _, err := ns.LookupPath("/a"); err != store.ErrNotExist {
					return fmt.Errorf("/a after the rename: %v, want ErrNotExist", err)
				}
				m.DropCaches()
				f, err := m.Open(ctx, "/b")
				if err != nil {
					return err
				}
				got, n, err := m.Read(ctx, f, 0, int64(len(aBytes)))
				if err != nil || n != int64(len(aBytes)) || !bytes.Equal(got.Bytes, aBytes) {
					return fmt.Errorf("/b does not read back a's bytes: n=%d err=%v", n, err)
				}
				return m.Close(ctx, f)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// metaRequests reads pvfs_meta_requests_total by procedure.
func metaRequests(cl *Cluster) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range cl.Metrics().Snapshot().Metrics {
		if fam.Name != "pvfs_meta_requests_total" {
			continue
		}
		for _, ser := range fam.Series {
			out[ser.Labels["proc"]] += ser.Value
		}
	}
	return out
}

// mdsVerb is one namespace verb of the Direct-pNFS metadata server, and the
// PVFS2 procedure it must cost ("" for none).
type mdsVerb struct {
	name, proc string
	call       func(ctx *rpc.Ctx) error
}

// mdsVerbs calls every namespace verb of b once, in an order in which each
// succeeds on an empty root: the names the later verbs use come from the
// earlier ones.
func mdsVerbs(b *directMDSBackend) []mdsVerb {
	root := b.Root()
	var file uint64
	return []mdsVerb{
		{"Root", "", func(*rpc.Ctx) error {
			if got := b.Root(); got != root {
				return fmt.Errorf("root moved from %d to %d", root, got)
			}
			return nil
		}},
		{"Create", "create-h", func(ctx *rpc.Ctx) (err error) {
			file, _, err = b.Create(ctx, root, "f")
			return err
		}},
		{"Mkdir", "mkdir-h", func(ctx *rpc.Ctx) error {
			_, _, err := b.Mkdir(ctx, root, "d")
			return err
		}},
		{"Lookup", "lookup-h", func(ctx *rpc.Ctx) error {
			_, _, err := b.Lookup(ctx, root, "f")
			return err
		}},
		{"GetAttr", "", func(ctx *rpc.Ctx) error {
			_, err := b.GetAttr(ctx, file)
			return err
		}},
		{"Rename", "rename-h", func(ctx *rpc.Ctx) error { return b.Rename(ctx, root, "f", "g") }},
		{"ReadDir", "readdir-h", func(ctx *rpc.Ctx) error {
			_, err := b.ReadDir(ctx, root)
			return err
		}},
		{"Remove", "remove-h", func(ctx *rpc.Ctx) error { return b.Remove(ctx, root, "g") }},
	}
}

// TestDirectMDSNamespaceCostsARemoteCall: the Direct-pNFS metadata server
// calls its co-located metadata manager in-process, but each namespace verb
// still enters MetaServer.Handle as one handle procedure — counted there
// exactly once, as a remote export's call is — while Root and the local
// GetAttr (no ripple, paper §4.1) issue none.
func TestDirectMDSNamespaceCostsARemoteCall(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1})
	defer cl.Close()
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, _ *Mount, _ int) error {
		for _, v := range mdsVerbs(cl.directMDS) {
			before := metaRequests(cl)
			if err := v.call(ctx); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			after := metaRequests(cl)
			if v.proc != "" && after[v.proc] != before[v.proc]+1 {
				t.Errorf("%s: pvfs_meta_requests_total{proc=%q} grew by %v, want 1", v.name, v.proc, after[v.proc]-before[v.proc])
			}
			for proc, n := range after {
				if proc != v.proc && n != before[proc] {
					t.Errorf("%s: pvfs_meta_requests_total{proc=%q} grew by %v, want 0", v.name, proc, n-before[proc])
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectMDSNamespaceAnswersACrashedStore: while the metadata manager's
// namespace store is crashed, every namespace verb of the Direct-pNFS
// metadata server returns store.ErrUnavailable — the error nfs.Server answers
// with rpc.StatusDown — whether it reaches the store through
// MetaServer.Handle or, as GetAttr does, directly; after Recover each one
// succeeds again.
func TestDirectMDSNamespaceAnswersACrashedStore(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Backend: BackendWAL})
	defer cl.Close()
	ns := cl.PVFSMeta.Namespace().(store.Recoverable)
	run := func(phase string, check func(name string, err error)) {
		t.Helper()
		if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, _ *Mount, _ int) error {
			for _, v := range mdsVerbs(cl.directMDS) {
				if v.name != "Root" {
					check(v.name, v.call(ctx))
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	ns.Crash()
	run("crashed", func(name string, err error) {
		if !errors.Is(err, store.ErrUnavailable) {
			t.Errorf("crashed store: %s returned %v, want store.ErrUnavailable", name, err)
		}
	})
	if _, err := ns.Recover(); err != nil {
		t.Fatal(err)
	}
	run("recovered", func(name string, err error) {
		if err != nil {
			t.Errorf("recovered store: %s: %v", name, err)
		}
	})
}

// TestDirectMDSAnswersIOWithoutAPlacement: the Direct-pNFS MDS takes a
// file's placement from its record alone, so for a handle without one — a
// directory — LAYOUTGET and the proxied READ, WRITE and COMMIT answer IO
// rather than a layout or I/O made up from the handle.
func TestDirectMDSAnswersIOWithoutAPlacement(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1})
	defer cl.Close()
	b := cl.directMDS
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, _ *Mount, _ int) error {
		dir, _, err := b.Mkdir(ctx, b.Root(), "d")
		if err != nil {
			return err
		}
		_, layoutErr := b.LayoutGet(ctx, dir)
		_, _, _, readErr := b.Read(ctx, dir, 0, 1, false)
		_, writeErr := b.Write(ctx, dir, 0, payload.Synthetic(1), store.BlockSums{}, false)
		for name, err := range map[string]error{
			"LayoutGet": layoutErr, "Read": readErr, "Write": writeErr, "Commit": b.Commit(ctx, dir),
		} {
			if err != fserr.ErrIO {
				t.Errorf("%s of a directory: %v, want fserr.ErrIO", name, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPVFS2NestedVerbIsOneRequest: the native client names a nested path
// from the root handle, and the metadata manager walks it, so Create, Open,
// Mkdir and Remove on a three-level path each cost exactly one metadata
// request, counted under its namespace procedure.
func TestPVFS2NestedVerbIsOneRequest(t *testing.T) {
	cl := New(Config{Arch: ArchPVFS2, Clients: 1})
	defer cl.Close()
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		if err := errors.Join(m.Mkdir(ctx, "/a"), m.Mkdir(ctx, "/a/b")); err != nil {
			return err
		}
		for _, v := range []struct {
			name, proc string
			call       func() error
		}{
			{"Create", "create-h", func() error { _, err := m.Create(ctx, "/a/b/f"); return err }},
			{"Open", "lookup-h", func() error { _, err := m.Open(ctx, "/a/b/f"); return err }},
			{"Mkdir", "mkdir-h", func() error { return m.Mkdir(ctx, "/a/b/d") }},
			{"Remove", "remove-h", func() error { return m.Remove(ctx, "/a/b/f") }},
		} {
			before := metaRequests(cl)
			if err := v.call(); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			after := metaRequests(cl)
			if after[v.proc] != before[v.proc]+1 {
				t.Errorf("%s: pvfs_meta_requests_total{proc=%q} grew by %v, want 1", v.name, v.proc, after[v.proc]-before[v.proc])
			}
			for proc, n := range after {
				if proc != v.proc && n != before[proc] {
					t.Errorf("%s: pvfs_meta_requests_total{proc=%q} grew by %v, want 0", v.name, proc, n-before[proc])
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// mdsRecorder is the cluster's transport, noting the node that serves the
// NFS metadata service: the server a mount sends its namespace compounds to.
type mdsRecorder struct {
	rpc.Transport
	node *string
}

func (r mdsRecorder) Serve(node, service string, reg *rpc.Registry, h rpc.Handler, threads int) (string, error) {
	if service == ServiceMDS {
		*r.node = node
	}
	return r.Transport.Serve(node, service, reg, h, threads)
}

// TestNFSServersRefuseMultiComponentNames: the PVFS2 metadata manager walks
// a '/' in a name as a path, so the NFS server in front of it answers Inval
// for every name that is not one entry of one directory — "d/f", "", "."
// and ".." — in each operation that carries a name, and leaves the
// namespace as it was.  Without the check a hostile client's LOOKUP of
// "d/f" from the root reached /d/f.
func TestNFSServersRefuseMultiComponentNames(t *testing.T) {
	defer func(prev func(*Cluster) rpc.Transport) { nfsTransport = prev }(nfsTransport)
	for _, arch := range Archs {
		if arch == ArchPVFS2 {
			continue // no NFS server
		}
		t.Run(string(arch), func(t *testing.T) {
			var mds string
			nfsTransport = func(cl *Cluster) rpc.Transport { return mdsRecorder{cl.tr, &mds} }
			cl := New(Config{Arch: arch, Clients: 1})
			defer cl.Close()
			if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
				if err := m.Mkdir(ctx, "/d"); err != nil {
					return err
				}
				f, err := m.Create(ctx, "/d/f")
				if err != nil {
					return err
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				conn := cl.dial(m.node.Name, mds, ServiceMDS)
				for _, name := range []string{"d/f", "d/g", "/d", "", ".", ".."} {
					for _, op := range []nfs.Op{
						&nfs.OpLookup{Name: name},
						&nfs.OpOpen{Name: name, Create: true},
						&nfs.OpCreate{Name: name},
						&nfs.OpRemove{Name: name},
						&nfs.OpRename{Src: name, Dst: "x"},
						&nfs.OpRename{Src: "d", Dst: name},
					} {
						var rep nfs.CompoundRep
						args := &nfs.CompoundArgs{Ops: []nfs.Op{&nfs.OpPutRootFH{}, op}}
						if err := conn.Call(ctx, nfs.ProcCompound, args, &rep); err != nil {
							return err
						}
						if rep.Status != fserr.Inval || len(rep.Results) != 2 {
							t.Errorf("%T %+v: status %v after %d results, want Inval at the second", op, op, rep.Status, len(rep.Results))
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			ns := cl.PVFSMeta.Namespace()
			for dir, want := range map[string][]string{"/": {"d"}, "/d": {"f"}} {
				at, err := ns.LookupPath(dir)
				if err != nil {
					t.Fatal(err)
				}
				if names, err := ns.ReadDir(at.ID); err != nil || !reflect.DeepEqual(names, want) {
					t.Errorf("%s holds %v (%v), want %v", dir, names, err, want)
				}
			}
		})
	}
}
