package pvfs

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
)

// TestRebalanceMovesFilesOntoTarget drives the metadata manager's migration
// without a cluster: a dense file in a subdirectory and a sparse one move
// from four daemons onto two.  Each reads its bytes back through a fresh
// open, no daemon keeps an object of either old placement, the sparse file
// keeps its exact size — each new object has the size the new geometry
// gives it, although the copy skipped the holes — and a second pass moves
// nothing.
func TestRebalanceMovesFilesOntoTarget(t *testing.T) {
	const stripe = 1000
	fs := newTestFS(t, 4, stripe)
	dense := make([]byte, 10_000)
	for i := range dense {
		dense[i] = byte(i % 251)
	}
	sparse := make([]byte, 8_100)
	copy(sparse[:100], dense)
	copy(sparse[8_000:8_100], dense[500:])
	want := map[string][]byte{"/d/dense": dense, "/sparse": sparse}
	target := DistParams{StripeSize: stripe, Servers: []uint32{1, 3}}
	fs.run(t, func(ctx *rpc.Ctx) {
		c := fs.client
		if err := c.Mkdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		put := func(f *File, off int64, b []byte) {
			if _, err := c.Write(ctx, f, off, payload.Real(b), true); err != nil {
				t.Fatal(err)
			}
		}
		f, err := c.Create(ctx, "/d/dense")
		if err != nil {
			t.Fatal(err)
		}
		put(f, 0, dense)
		old := []Placement{f.at.Load().Placement}
		if f, err = c.Create(ctx, "/sparse"); err != nil {
			t.Fatal(err)
		}
		put(f, 0, sparse[:100])
		put(f, 8_000, sparse[8_000:])
		old = append(old, f.at.Load().Placement)

		files, moved, err := fs.meta.Rebalance(ctx, c, target, true)
		if err != nil || files != 2 || moved != int64(len(dense)+len(sparse)) {
			t.Fatalf("Rebalance = %d files, %d bytes, %v; want 2 files, %d bytes", files, moved, err, len(dense)+len(sparse))
		}
		for path, b := range want {
			f, err := c.Open(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			p := f.at.Load().Placement
			if !slices.Equal(p.Dist.Servers, target.Servers) {
				t.Fatalf("%s is placed on servers %v after the pass, want %v", path, p.Dist.Servers, target.Servers)
			}
			for dev, size := range objSizes(p.Dist.Mapper(), len(p.Dist.Servers), int64(len(b))) {
				if got := fs.storage[p.Dist.Servers[dev]].ObjectSize(p.Data); got != size {
					t.Errorf("%s: the object on server %d is %d bytes, want %d", path, p.Dist.Servers[dev], got, size)
				}
			}
			if size, err := c.GetAttr(ctx, f); err != nil || size != int64(len(b)) {
				t.Errorf("%s: size %d (%v) after the pass, want %d", path, size, err, len(b))
			}
			got, _, err := c.Read(ctx, f, 0, int64(len(b)), true)
			if err != nil || !bytes.Equal(got.Bytes, b) {
				t.Errorf("%s read back %d bytes (%v), not the %d it held", path, len(got.Bytes), err, len(b))
			}
		}
		for _, p := range old {
			for i, s := range fs.storage {
				if _, e := s.object(p.Data); e != fserr.Stale {
					t.Errorf("daemon %d still holds an object of the old placement %x (%v)", i, uint64(p.Data), e)
				}
			}
		}
		if files, moved, err := fs.meta.Rebalance(ctx, c, target, true); err != nil || files != 0 || moved != 0 {
			t.Errorf("a second pass moved %d files and %d bytes (%v), want none", files, moved, err)
		}
	})
}

// refusingStore refuses every Truncate.
type refusingStore struct{ store.Store }

func (refusingStore) Truncate(store.FileID, int64) error { return store.ErrInval }

// TestMigrationRefusedTruncateKeepsOldPlacement: the truncate that sizes a
// migrated file's new objects comes before the flip and heeds each
// daemon's status.  A sparse file moving from four daemons onto {1, 3},
// whose daemon 3 refuses the truncate, stays on its old placement with its
// size, and Rebalance returns the refusal.
func TestMigrationRefusedTruncateKeepsOldPlacement(t *testing.T) {
	const stripe, size = 1000, 8_100
	fs := newTestFS(t, 4, stripe)
	fs.storage[3].store = refusingStore{fs.storage[3].store}
	fs.run(t, func(ctx *rpc.Ctx) {
		c := fs.client
		f, err := c.Create(ctx, "/sparse")
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, size - 100} {
			if _, err := c.Write(ctx, f, off, payload.Real(make([]byte, 100)), true); err != nil {
				t.Fatal(err)
			}
		}
		old := f.at.Load().Placement
		target := DistParams{StripeSize: stripe, Servers: []uint32{1, 3}}
		if _, _, err := fs.meta.Rebalance(ctx, c, target, true); !errors.Is(err, store.ErrInval) {
			t.Fatalf("Rebalance with a refused truncate: %v, want the refusal", err)
		}
		if p, err := fs.meta.PlacementOf(f.Handle); err != nil || p.Data != old.Data || !slices.Equal(p.Dist.Servers, old.Dist.Servers) {
			t.Fatalf("placement after the refused truncate: %+v (%v), want the old %+v", p, err, old)
		}
		if got, err := c.GetAttr(ctx, f); err != nil || got != size {
			t.Fatalf("size after the refused truncate: %d (%v), want %d", got, err, size)
		}
	})
}
