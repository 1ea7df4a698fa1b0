package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

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
				for _, s := range cl.Storage {
					total += s.ObjectSize(h)
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
				for i, s := range cl.Storage {
					if got := s.ObjectSize(oldB); got != 0 {
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
