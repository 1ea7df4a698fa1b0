package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// TestFilesWrittenDuringMembershipChange: while a join or a drain migrates
// a pre-written file, one client creates, writes and fsyncs 40 files of
// 1 MB, 10 ms apart from the change on, so some land during the migration
// and the rest after it.  Every create, write and fsync succeeds, and after the
// client's caches are dropped every file — and the migrated one — reads
// back byte for byte, on all five architectures and both content backends.
// A revision whose exports guess a file's placement until the membership
// change publishes reads files written during a join back wrong, and fails
// a write during a drain; one whose Direct-pNFS device list lags the
// default distribution fails the first create during a join.
func TestFilesWrittenDuringMembershipChange(t *testing.T) {
	const (
		files  = 40
		size   = 1 << 20
		apart  = 10 * time.Millisecond
		corpus = 2 << 20
	)
	changes := []faults.Event{faults.Join{Node: "io9"}, faults.Drain{Node: "io1"}}
	for _, arch := range Archs {
		for _, ev := range changes {
			for _, backend := range []string{BackendMem, BackendWAL} {
				t.Run(fmt.Sprintf("%s/%s/%s", arch, ev.Kind(), backend), func(t *testing.T) {
					cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10, Backend: backend})
					defer cl.Close()
					if err := writeMemberCorpus(cl, corpus); err != nil {
						t.Fatal(err)
					}
					schedule(t, cl, ev)
					start := cl.Now()
					if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
						t0 := ctx.Stamp()
						for i := 0; i < files; i++ {
							pauseUntil(ctx, t0, time.Duration(i)*apart)
							if err := writeWhole(ctx, m, fmt.Sprintf("/during.%d", i), memberPattern(i+1, size)); err != nil {
								return fmt.Errorf("file %d at %v: %w", i, cl.Now()-start, err)
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if cl.rebalanceFiles.Value() == 0 {
						t.Fatal("the membership change moved no file")
					}
					if migStart, migEnd := cl.MigrationWindow(); migStart-start > apart || migEnd-start < apart || migEnd-start > (files-1)*apart {
						t.Fatalf("migration window %v..%v does not split the writes into some during it and some after", migStart-start, migEnd-start)
					}
					for _, m := range cl.Mounts() {
						m.DropCaches()
					}
					if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
						for i := 0; i < files; i++ {
							if err := readWhole(ctx, m, fmt.Sprintf("/during.%d", i), memberPattern(i+1, size)); err != nil {
								return err
							}
						}
						return readWhole(ctx, m, "/member.0", memberPattern(0, corpus))
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// writeWhole creates path and writes, fsyncs and closes data into it.
func writeWhole(ctx *rpc.Ctx, m *Mount, path string, data []byte) error {
	f, err := m.Create(ctx, path)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if err := m.Write(ctx, f, 0, payload.Real(data)); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if err := m.Fsync(ctx, f); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	return m.Close(ctx, f)
}

// readWhole opens path and checks that it holds exactly want.
func readWhole(ctx *rpc.Ctx, m *Mount, path string, want []byte) error {
	f, err := m.Open(ctx, path)
	if err != nil {
		return fmt.Errorf("%s: open: %w", path, err)
	}
	got, n, err := m.Read(ctx, f, 0, int64(len(want)))
	if err != nil || n != int64(len(want)) {
		return fmt.Errorf("%s: read %d of %d bytes: %v", path, n, len(want), err)
	}
	if !bytes.Equal(got.Bytes, want) {
		return fmt.Errorf("%s: read back wrong bytes", path)
	}
	return m.Close(ctx, f)
}

// TestHeldFileWritesAfterMembershipChange: a file opened before a join or a
// drain and written and fsynced through the same open reference well after
// it reads back the new bytes once the client's caches are dropped, on all
// five architectures.  The change moved the file and removed the objects
// the reference was opened on, so its first write answers Stale, and the
// client re-reads the placement (PVFS2, the exports' data servers) or
// refetches the layout (Direct-pNFS) and writes there: no recall tells the
// client, and a 2-tier client keeps its pre-change layout.
func TestHeldFileWritesAfterMembershipChange(t *testing.T) {
	const size = 1 << 20
	for _, arch := range Archs {
		for _, ev := range []faults.Event{faults.Join{Node: "io9"}, faults.Drain{Node: "io1"}} {
			t.Run(fmt.Sprintf("%s/%s", arch, ev.Kind()), func(t *testing.T) {
				cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10})
				defer cl.Close()
				var f *File
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) (err error) {
					if f, err = m.Create(ctx, "/held"); err != nil {
						return err
					}
					if err := m.Write(ctx, f, 0, payload.Real(memberPattern(0, size))); err != nil {
						return err
					}
					return m.Fsync(ctx, f)
				}); err != nil {
					t.Fatal(err)
				}
				schedule(t, cl, ev)
				if err := cl.Reconcile(); err != nil {
					t.Fatal(err)
				}
				if cl.rebalanceFiles.Value() == 0 {
					t.Fatal("the membership change moved no file")
				}
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
					ctx.Pause(3 * time.Second)
					if err := m.Write(ctx, f, 0, payload.Real(memberPattern(1, size))); err != nil {
						return fmt.Errorf("write: %w", err)
					}
					if err := m.Fsync(ctx, f); err != nil {
						return fmt.Errorf("fsync: %w", err)
					}
					return m.Close(ctx, f)
				}); err != nil {
					t.Fatal(err)
				}
				for _, m := range cl.Mounts() {
					m.DropCaches()
				}
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
					return readWhole(ctx, m, "/held", memberPattern(1, size))
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestStalePlacementReadsCurrentBytes: a read through a deliberately stale
// placement — the file's pre-join one, opened with OpenPlaced after the
// join moved the file and the file was overwritten — returns the file's
// current bytes, not the ones the join copied.
func TestStalePlacementReadsCurrentBytes(t *testing.T) {
	const size = 300_000
	cl := New(Config{Arch: ArchPVFS2, Clients: 1, Real: true, StripeSize: 64 << 10})
	defer cl.Close()
	if err := writeMemberCorpus(cl, size); err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/member.0")
	if err != nil {
		t.Fatal(err)
	}
	h := pvfsHandle(at.ID)
	old, err := cl.PVFSMeta.PlacementOf(h)
	if err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.Join{Node: "io9"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if now, _ := cl.PVFSMeta.PlacementOf(h); now.Data == old.Data {
		t.Fatal("the join did not move the file")
	}
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		if err := writeWhole(ctx, m, "/member.0", memberPattern(1, size)); err != nil {
			return err
		}
		pv := m.p.(pvfsMount).Client
		stale := pv.OpenPlaced(h, old)
		got, n, err := pv.Read(ctx, stale, 0, size, true)
		if err != nil || n != size {
			return fmt.Errorf("read %d of %d bytes: %v", n, size, err)
		}
		if !bytes.Equal(got.Bytes, memberPattern(1, size)) {
			return fmt.Errorf("a stale placement read back wrong bytes")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMigratedOpenFileRefetchesItsLayoutOnce: a Direct-pNFS file stays open
// while the test runs a migration that moves it.  The first write under
// the old layout meets the removed source objects and refetches the
// layout; the refetched layout becomes the file's, so the remaining chunks
// go out under it and nfs_client_layout_refetches_total moves by 1, not by
// one per chunk.
// Every byte reads back from a fresh open.
func TestMigratedOpenFileRefetchesItsLayoutOnce(t *testing.T) {
	const chunks, chunk = 5, 2 << 20
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true})
	defer cl.Close()
	target := cl.activeDist()
	target.Servers = slices.DeleteFunc(target.Servers, func(id uint32) bool { return id == 1 })
	mig := cl.pvfsClientWith(cl.mdsNode, ioengine.Background, "rebalance")
	want := memberPattern(0, chunks*chunk)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		f, err := m.Create(ctx, "/f")
		if err != nil {
			return err
		}
		put := func(k int) error {
			if err := m.Write(ctx, f, int64(k*chunk), payload.Real(want[k*chunk:(k+1)*chunk])); err != nil {
				return err
			}
			return m.Fsync(ctx, f)
		}
		if err := put(0); err != nil {
			return err
		}
		if files, _, err := cl.PVFSMeta.Rebalance(ctx, mig, target, true); err != nil || files != 1 {
			return fmt.Errorf("the migration moved %d files: %v", files, err)
		}
		before := counterSum(cl, "nfs_client_layout_refetches_total")
		for k := 1; k < chunks; k++ {
			if err := put(k); err != nil {
				return fmt.Errorf("chunk %d: %w", k, err)
			}
		}
		if got := counterSum(cl, "nfs_client_layout_refetches_total") - before; got != 1 {
			return fmt.Errorf("writing %d chunks after the migration refetched the layout %v times, want 1", chunks-1, got)
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		m.DropCaches()
		return readWhole(ctx, m, "/f", want)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmCachesFollowsTheMigratedFile: after a join moved a file and other
// writes evicted it from every disk cache, WarmCaches makes it resident
// again where it now lives — its placement's data handle, on its
// placement's servers — so reading it back misses no disk cache.
func TestWarmCachesFollowsTheMigratedFile(t *testing.T) {
	const size = 1 << 20
	cl := New(Config{Arch: ArchPVFS2, Clients: 1, Real: true, StripeSize: 64 << 10, DiskCacheBytes: 4 << 20})
	defer cl.Close()
	if err := writeMemberCorpus(cl, size); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.Join{Node: "io9"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if cl.rebalanceFiles.Value() != 1 {
		t.Fatal("the join did not move the file")
	}
	misses := func() (n uint64) {
		for _, s := range cl.Stats() {
			n += s.DiskCacheMisses
		}
		return n
	}
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		return writeWhole(ctx, m, "/evict", make([]byte, 64<<20))
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WarmCaches("/member.0"); err != nil {
		t.Fatal(err)
	}
	before := misses()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		return readWhole(ctx, m, "/member.0", memberPattern(0, size))
	}); err != nil {
		t.Fatal(err)
	}
	if got := misses() - before; got != 0 {
		t.Fatalf("reading the warmed file back missed the disk caches %d times", got)
	}
}
