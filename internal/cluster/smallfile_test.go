package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
)

// serverOps reads nfs_server_ops_total for one operation at one service.
func serverOps(cl *Cluster, service, op string) (n float64) {
	for _, fam := range cl.Metrics().Snapshot().Metrics {
		if fam.Name != "nfs_server_ops_total" {
			continue
		}
		for _, ser := range fam.Series {
			if ser.Labels["service"] == service && ser.Labels["op"] == op {
				n += ser.Value
			}
		}
	}
	return n
}

// wireCost is what one client sequence costs on the wire: calls per remote
// service, and the COMMIT and LAYOUTCOMMIT operations the servers ran.
type wireCost struct {
	MDS, DS, IO            float64 // rpc_client_calls_total: nfs-mds, nfs-ds, pvfs-io
	Commits, LayoutCommits float64 // nfs_server_ops_total, every service
}

func costOf(cl *Cluster) wireCost {
	return wireCost{
		MDS: callsTo(cl, ServiceMDS), DS: callsTo(cl, ServiceDS), IO: callsTo(cl, pvfs.ServiceIO),
		Commits:       serverOps(cl, ServiceMDS, "COMMIT") + serverOps(cl, ServiceDS, "COMMIT"),
		LayoutCommits: serverOps(cl, ServiceMDS, "LAYOUTCOMMIT"),
	}
}

func (w wireCost) minus(v wireCost) wireCost {
	return wireCost{w.MDS - v.MDS, w.DS - v.DS, w.IO - v.IO, w.Commits - v.Commits, w.LayoutCommits - v.LayoutCommits}
}

// TestSmallFileTransactionCalls prices, call for call, the small-file
// transaction of the smallfile_wal benchmark and the flushes around its
// FILE_SYNC rule, on Direct-pNFS and two-tier pNFS over both transports.
//
// The transaction is create, write 16 KB, fsync, close; drop caches; open,
// read, stat, close; remove.  On Direct-pNFS it costs 15 calls: the creating
// OPEN carries LAYOUTGET (nfs-mds 7), the fsync's lone WRITE goes FILE_SYNC
// and needs no COMMIT (nfs-ds 2: WRITE, READ), and the metadata server fans
// IO-CREATE and IO-REMOVE out to the 3 storage daemons (pvfs-io 6).  On
// two-tier pNFS the same two calls go and every pvfs-io call stays: its data
// server flushes the file's daemons for a FILE_SYNC write as it did for the
// COMMIT.  A close without fsync sends LAYOUTCOMMIT inside the CLOSE
// compound.  Two dirty runs, or a last run behind an asynchronous WSize
// flush, still go out UNSTABLE and are committed.
func TestSmallFileTransactionCalls(t *testing.T) {
	const (
		wsize = 64 << 10
		small = 16 << 10
	)
	data := failoverPattern(3, wsize+small)
	write := func(ctx *rpc.Ctx, m *Mount, f *File, off, n int64) error {
		return m.Write(ctx, f, off, payload.Real(data[off:off+n]))
	}
	steps := []struct {
		name string
		run  func(ctx *rpc.Ctx, m *Mount, path string) error
	}{
		{"transaction", func(ctx *rpc.Ctx, m *Mount, path string) error {
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			if err := write(ctx, m, f, 0, small); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
			m.DropCaches()
			if f, err = m.Open(ctx, path); err != nil {
				return err
			}
			got, n, err := m.Read(ctx, f, 0, small)
			if err != nil {
				return err
			}
			ok := n == small && bytes.Equal(got.Bytes, data[:small])
			got.Release()
			if !ok {
				return fmt.Errorf("read-back of %s differs", path)
			}
			if size, err := m.Stat(ctx, f); err != nil || size != small {
				return fmt.Errorf("stat of %s: %d, %v", path, size, err)
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
			return m.Remove(ctx, path)
		}},
		{"close-without-fsync", func(ctx *rpc.Ctx, m *Mount, path string) error {
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			if err := write(ctx, m, f, 0, small); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}},
		{"two-dirty-runs", func(ctx *rpc.Ctx, m *Mount, path string) error {
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			if err := write(ctx, m, f, 0, 4<<10); err != nil {
				return err
			}
			if err := write(ctx, m, f, 8<<10, 4<<10); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}},
		{"fsync-behind-async-flush", func(ctx *rpc.Ctx, m *Mount, path string) error {
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			// A full WSize run starts write-back at once; the tail is
			// still dirty when Fsync looks.
			if err := write(ctx, m, f, 0, wsize+small); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}},
	}
	want := map[Arch]map[string]wireCost{
		ArchDirectPNFS: {
			"transaction":              {MDS: 7, DS: 2, IO: 6, Commits: 0, LayoutCommits: 1},
			"close-without-fsync":      {MDS: 2, DS: 1, IO: 3, Commits: 0, LayoutCommits: 1},
			"two-dirty-runs":           {MDS: 3, DS: 3, IO: 3, Commits: 1, LayoutCommits: 1},
			"fsync-behind-async-flush": {MDS: 3, DS: 3, IO: 3, Commits: 1, LayoutCommits: 1},
		},
		ArchPNFS2Tier: {
			"transaction":              {MDS: 7, DS: 2, IO: 26, Commits: 0, LayoutCommits: 1},
			"close-without-fsync":      {MDS: 2, DS: 1, IO: 13, Commits: 0, LayoutCommits: 1},
			"two-dirty-runs":           {MDS: 3, DS: 3, IO: 14, Commits: 1, LayoutCommits: 1},
			"fsync-behind-async-flush": {MDS: 3, DS: 4, IO: 17, Commits: 2, LayoutCommits: 1},
		},
	}
	for _, arch := range []Arch{ArchDirectPNFS, ArchPNFS2Tier} {
		for _, tr := range []TransportKind{TransportSim, TransportTCP} {
			t.Run(fmt.Sprintf("%s/%s", arch, tr), func(t *testing.T) {
				cl := New(Config{
					Arch: arch, Clients: 1, Backends: 3, Real: true, Transport: tr,
					Backend: BackendWAL, WSize: wsize, RSize: wsize,
				})
				defer cl.Close()
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
					for i, s := range steps {
						before := costOf(cl)
						if err := s.run(ctx, m, fmt.Sprintf("/f%d", i)); err != nil {
							return fmt.Errorf("%s: %w", s.name, err)
						}
						if got := costOf(cl).minus(before); got != want[arch][s.name] {
							t.Errorf("%s: cost %+v, want %+v", s.name, got, want[arch][s.name])
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFileSyncDurability: a lone fsync WRITE that went FILE_SYNC is durable
// with no COMMIT and no close behind it.  On the wal backend files of 4 to
// 64 KB are written, fsynced and left open; then every storage node loses
// its volatile state and replays its journal, and every file must read back
// byte for byte.  The second case takes the files' data servers down before
// the fsync, so the stable write reaches storage through the metadata
// server's proxy rung — on pNFS-3tier, whose data servers are nodes of
// their own (blind layouts put stripe unit 0 on ds1).
func TestFileSyncDurability(t *testing.T) {
	sizes := []int64{4 << 10, 23 << 10, 64 << 10}
	cases := []struct {
		name string
		arch Arch
		down []string
	}{
		{"direct-pnfs", ArchDirectPNFS, nil},
		{"pnfs-3tier/via-mds-proxy", ArchPNFS3Tier, []string{"ds1", "ds2"}},
	}
	for _, c := range cases {
		for _, tr := range []TransportKind{TransportSim, TransportTCP} {
			t.Run(fmt.Sprintf("%s/%s", c.name, tr), func(t *testing.T) {
				cl := New(Config{Arch: c.arch, Clients: 1, Real: true, Transport: tr, Backend: BackendWAL})
				defer cl.Close()
				for _, n := range c.down {
					cl.SetNodeDown(n, true)
				}
				commits := costOf(cl).Commits
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
					for i, size := range sizes {
						f, err := m.Create(ctx, fmt.Sprintf("/sync%d", i))
						if err != nil {
							return fmt.Errorf("create: %w", err)
						}
						if err := m.Write(ctx, f, 0, payload.Real(failoverPattern(i, int(size)))); err != nil {
							return fmt.Errorf("write: %w", err)
						}
						if err := m.Fsync(ctx, f); err != nil {
							return fmt.Errorf("fsync of %d bytes: %w", size, err)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got := costOf(cl).Commits - commits; got != 0 {
					t.Fatalf("%v COMMITs: the lone fsync writes did not go FILE_SYNC", got)
				}
				if proxied := counterSum(cl, "nfs_client_mds_fallbacks_total"); len(c.down) > 0 && proxied != float64(len(sizes)) {
					t.Fatalf("%v writes proxied through the MDS, want %d", proxied, len(sizes))
				}
				for _, n := range c.down {
					cl.SetNodeDown(n, false)
				}
				for _, m := range cl.members {
					cl.CrashVolatile(m.node.Name)
				}
				for _, m := range cl.members {
					cl.RestartVolatile(m.node.Name)
				}
				if counterSum(cl, "store_wal_replays_total") == 0 {
					t.Fatal("no journal record replayed: the crash tested nothing")
				}
				if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
					m.DropCaches()
					for i, size := range sizes {
						path := fmt.Sprintf("/sync%d", i)
						f, err := m.Open(ctx, path)
						if err != nil {
							return err
						}
						got, n, err := m.Read(ctx, f, 0, size)
						if err != nil {
							return fmt.Errorf("read of %s after the crash: %w", path, err)
						}
						ok := n == size && bytes.Equal(got.Bytes, failoverPattern(i, int(size)))
						got.Release()
						if !ok {
							return fmt.Errorf("%s lost fsynced bytes in the crash (%d of %d read back)", path, n, size)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFsyncedEmptyFileSurvivesCrash: a file created and fsynced empty is
// durable, so it survives a storage crash that loses every unsynced byte.
// On the wal backend client 0 creates /e, fsyncs it with nothing written
// and closes it; every storage node then loses its volatile state and
// replays its journal; client 1 must open /e, write to it and fsync.  The
// datafile objects a create makes on the storage daemons are what is at
// stake: an fsync with no dirty data sends nothing to them.
func TestFsyncedEmptyFileSurvivesCrash(t *testing.T) {
	for _, arch := range Archs {
		for _, tr := range []TransportKind{TransportSim, TransportTCP} {
			t.Run(fmt.Sprintf("%s/%s", arch, tr), func(t *testing.T) {
				cl := New(Config{Arch: arch, Clients: 2, Real: true, Transport: tr, Backend: BackendWAL})
				defer cl.Close()
				if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
					f, err := m.Create(ctx, "/e")
					if err != nil {
						return fmt.Errorf("create: %w", err)
					}
					if err := m.Fsync(ctx, f); err != nil {
						return fmt.Errorf("fsync: %w", err)
					}
					return m.Close(ctx, f)
				}); err != nil {
					t.Fatal(err)
				}
				for _, m := range cl.members {
					cl.CrashVolatile(m.node.Name)
				}
				for _, m := range cl.members {
					cl.RestartVolatile(m.node.Name)
				}
				if _, err := cl.RunClient(1, func(ctx *rpc.Ctx, m *Mount, _ int) error {
					f, err := m.Open(ctx, "/e")
					if err != nil {
						return fmt.Errorf("open after the crash: %w", err)
					}
					if err := m.Write(ctx, f, 0, payload.Real([]byte("hello"))); err != nil {
						return fmt.Errorf("write after the crash: %w", err)
					}
					if err := m.Fsync(ctx, f); err != nil {
						return fmt.Errorf("fsync after the crash: %w", err)
					}
					return m.Close(ctx, f)
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
