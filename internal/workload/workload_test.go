package workload

import (
	"fmt"
	"testing"

	"dpnfs/internal/cluster"
)

// Small scales keep these correctness tests fast; shape assertions live in
// the root bench/figure tests.

// newCluster builds a cluster that is closed when the test ends.
func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cfg)
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestIORWriteRunsOnAllArchitectures(t *testing.T) {
	for _, arch := range cluster.Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := newCluster(t, cluster.Config{Arch: arch, Clients: 2})
			res, err := IOR(cl, IORConfig{FileSize: 8 << 20, Block: 2 << 20, Separate: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != 16<<20 || res.Elapsed <= 0 {
				t.Fatalf("bad result: %+v", res)
			}
			if tp := res.ThroughputMBs(); tp <= 0 || tp > 1000 {
				t.Fatalf("implausible throughput %.1f MB/s", tp)
			}
		})
	}
}

func TestIORSingleFileMode(t *testing.T) {
	cl := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 3})
	res, err := IOR(cl, IORConfig{FileSize: 4 << 20, Block: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// The shared file must hold every client's region.
	at, err := cl.PVFSMeta.Namespace().LookupPath("/ior.single")
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != 12<<20 {
		t.Fatalf("shared file size %d, want %d", at.Size, 12<<20)
	}
	if res.Bytes != 12<<20 {
		t.Fatalf("bytes %d", res.Bytes)
	}
}

func TestIORReadUsesWarmCache(t *testing.T) {
	cl := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 2})
	res, err := IOR(cl, IORConfig{FileSize: 16 << 20, Block: 2 << 20, Separate: true, Read: true})
	if err != nil {
		t.Fatal(err)
	}
	// Reads from warm caches should be far faster than disk-bound writes:
	// ≥ 100 MB/s aggregate for 2 clients on gigabit.
	if tp := res.ThroughputMBs(); tp < 80 {
		t.Fatalf("warm read throughput %.1f MB/s; cache not effective", tp)
	}
	var misses uint64
	for _, s := range cl.Stats() {
		misses += s.DiskCacheMisses
	}
	if misses != 0 {
		t.Fatalf("%d disk misses during warm read phase", misses)
	}
}

func TestATLASCoversFileExactly(t *testing.T) {
	cl := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 2})
	const total = 8 << 20
	res, err := ATLAS(cl, ATLASConfig{TotalBytes: total})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 2*total {
		t.Fatalf("bytes %d", res.Bytes)
	}
	for i := 0; i < 2; i++ {
		at, err := cl.PVFSMeta.Namespace().LookupPath(fmt.Sprintf("/atlas.%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if at.Size != total {
			t.Fatalf("client %d file size %d, want %d (segments must cover exactly)", i, at.Size, total)
		}
	}
}

func TestATLASSlowerOnPVFS2(t *testing.T) {
	tp := func(arch cluster.Arch) float64 {
		cl := newCluster(t, cluster.Config{Arch: arch, Clients: 2})
		res, err := ATLAS(cl, ATLASConfig{TotalBytes: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputMBs()
	}
	direct := tp(cluster.ArchDirectPNFS)
	pvfs := tp(cluster.ArchPVFS2)
	if direct < 2*pvfs {
		t.Fatalf("small-request mix should favor Direct-pNFS: direct=%.1f pvfs2=%.1f", direct, pvfs)
	}
}

func TestBTIO(t *testing.T) {
	for _, arch := range []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2} {
		cl := newCluster(t, cluster.Config{Arch: arch, Clients: 3})
		res, err := BTIO(cl, BTIOConfig{CheckpointBytes: 12 << 20})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", arch)
		}
	}
	// The checkpoint file must be complete: 40 checkpoints of 4 × 64 KiB.
	const size = btioCheckpoints * 4 * 64 << 10
	cl := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 4})
	if _, err := BTIO(cl, BTIOConfig{CheckpointBytes: size}); err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/btio")
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != size {
		t.Fatalf("checkpoint file %d bytes, want %d", at.Size, size)
	}
}

func TestOLTPTransactionAccounting(t *testing.T) {
	cl := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 2})
	res, err := OLTP(cl, OLTPConfig{FileBytes: 16 << 20, Transactions: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 100 {
		t.Fatalf("transactions %d, want 100", res.Transactions)
	}
	if res.TPS() <= 0 {
		t.Fatal("no TPS")
	}
}

func TestOLTPFavorsDirect(t *testing.T) {
	tp := func(arch cluster.Arch) float64 {
		cl := newCluster(t, cluster.Config{Arch: arch, Clients: 2})
		res, err := OLTP(cl, OLTPConfig{FileBytes: 16 << 20, Transactions: 100})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputMBs()
	}
	direct := tp(cluster.ArchDirectPNFS)
	pvfs := tp(cluster.ArchPVFS2)
	if direct < 1.5*pvfs {
		t.Fatalf("sync 8K RMW should favor Direct-pNFS: direct=%.2f pvfs2=%.2f", direct, pvfs)
	}
}

func TestPostmark(t *testing.T) {
	for _, arch := range []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2} {
		cl := newCluster(t, cluster.Config{
			Arch: arch, Clients: 2,
			StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
		})
		res, err := Postmark(cl, PostmarkConfig{Transactions: 40})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if res.Transactions != 80 || res.TPS() <= 0 {
			t.Fatalf("%s: bad result %+v", arch, res)
		}
	}
}

func TestSSHBuildPhases(t *testing.T) {
	direct := newCluster(t, cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 1})
	d, err := SSHBuild(direct)
	if err != nil {
		t.Fatal(err)
	}
	pv := newCluster(t, cluster.Config{Arch: cluster.ArchPVFS2, Clients: 1})
	p, err := SSHBuild(pv)
	if err != nil {
		t.Fatal(err)
	}
	if d.Uncompress <= 0 || d.Configure <= 0 || d.Build <= 0 {
		t.Fatalf("missing phases: %+v", d)
	}
	// §6.4.3: Direct-pNFS reduces compile time (small reads/writes) but the
	// create-dominated phases do not improve.
	if d.Build >= p.Build {
		t.Fatalf("compile phase should favor Direct-pNFS: direct=%v pvfs2=%v", d.Build, p.Build)
	}
}
