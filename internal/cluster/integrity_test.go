package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/metrics"
	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// integrityCluster builds a replicated cluster for the integrity suites on
// the given store backend: every stripe stored twice, real payloads (there
// have to be bytes to rot), and wire checksums on.  3-tier halves its
// backends into storage nodes, so it gets eight to keep the copy count
// dividing the storage-node count.
func integrityCluster(arch Arch, backend string) *Cluster {
	backends := 6
	if arch == ArchPNFS3Tier {
		backends = 8
	}
	return New(Config{
		Arch: arch, Clients: 2, Backends: backends, Real: true,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
		Aggregation:   pnfs.AggReplicated,
		AggParams:     []int64{2, 64 << 10},
		WireChecksums: true,
		Backend:       backend,
	})
}

// scrubTally is one node's scrub counters: chunks verified, chunks found
// corrupt, and chunks repaired.
type scrubTally struct{ extents, found, repaired float64 }

// scrubTallies reads every node's scrub_{extents,errors_found,repaired}_total.
func scrubTallies(cl *Cluster) map[string]scrubTally {
	out := map[string]scrubTally{}
	for _, fam := range cl.Metrics().Snapshot().Metrics {
		for _, s := range fam.Series {
			node := s.Labels["node"]
			t := out[node]
			switch fam.Name {
			case "scrub_extents_total":
				t.extents = s.Value
			case "scrub_errors_found_total":
				t.found = s.Value
			case "scrub_repaired_total":
				t.repaired = s.Value
			default:
				continue
			}
			out[node] = t
		}
	}
	return out
}

// scrubbed returns what each node's scrub counters gained from before to
// after, for every node whose scan verified at least one chunk.
func scrubbed(before, after map[string]scrubTally) map[string]scrubTally {
	moved := map[string]scrubTally{}
	for node, a := range after {
		b := before[node]
		if d := (scrubTally{a.extents - b.extents, a.found - b.found, a.repaired - b.repaired}); d.extents > 0 {
			moved[node] = d
		}
	}
	return moved
}

// scrubPass runs one full-cluster scrub pass outside a workload — a plan of
// one Scrub, replayed by Reconcile — fails the test if a scan failed, and
// returns what the pass counted on each node it scanned.
func scrubPass(t *testing.T, cl *Cluster) map[string]scrubTally {
	t.Helper()
	before := scrubTallies(cl)
	if err := cl.Schedule(faults.NewPlan(0, faults.Scrub{})); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	return scrubbed(before, scrubTallies(cl))
}

// populateIntegrity writes each client's distinct pattern, so both replicas
// hold clean, complete copies, and then schedules events for the next run.
func populateIntegrity(t *testing.T, cl *Cluster, fileSize int, events ...faults.Event) {
	t.Helper()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/rot.%d", i))
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Real(failoverPattern(i, fileSize))); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	schedule(t, cl, events...)
}

// readBackIntegrity cold-reads the full corpus and fails on the first byte
// that differs from what was written — the "zero corrupt bytes delivered"
// half of the end-to-end integrity contract.
func readBackIntegrity(t *testing.T, cl *Cluster, fileSize, step int, settle time.Duration) {
	t.Helper()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		if settle > 0 {
			// Let the scheduled bit-rot land before the reads begin.
			ctx.P.Sleep(settle)
		}
		m.DropCaches()
		f, err := m.Open(ctx, fmt.Sprintf("/rot.%d", i))
		if err != nil {
			return err
		}
		want := failoverPattern(i, fileSize)
		for off := 0; off < fileSize; off += step {
			got, n, err := m.Read(ctx, f, int64(off), int64(step))
			if err != nil {
				return fmt.Errorf("read at %d: %w", off, err)
			}
			if n != int64(step) {
				return fmt.Errorf("read at %d: got %d bytes, want %d", off, n, step)
			}
			if !bytes.Equal(got.Bytes, want[off:off+step]) {
				return fmt.Errorf("client %d: corrupt bytes delivered at offset %d", i, off)
			}
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("read back: %v", err)
	}
}

// repairSum totals foreground read-repairs across both client stacks (the
// NFS family repairs through pNFS layouts, the PVFS2 family — which also
// backs the NFSv4 export and the 2/3-tier data servers — through the
// substrate's replica map).
func repairSum(cl *Cluster) float64 {
	return counterSum(cl, "nfs_client_read_repairs_total") +
		counterSum(cl, "pvfs_client_read_repairs_total")
}

// TestBitRotRepairAllArchitectures is the acceptance suite: on every
// architecture, bit rot lands on every storage node of a replicated cluster
// after the corpus is written, and a full cold read must (a) deliver every
// byte exactly as written, and (b) visibly engage the detection and repair
// machinery — at least one corruption injected and at least one extent
// read-repaired from a replica, not silently tolerated.
func TestBitRotRepairAllArchitectures(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
		rotAt    = 5 * time.Millisecond
	)
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			// Rot only the primary replica group (devices 0..inner-1): the
			// mirror group stays clean, so every corrupt chunk has a live
			// good copy to repair from.  (Rotting all nodes can corrupt
			// both copies of the same chunk, which is data loss by design.)
			inner := 3
			if arch == ArchPNFS3Tier {
				inner = 2
			}
			var events []faults.Event
			for d := 0; d < inner; d++ {
				events = append(events, faults.BitRot{
					At:   rotAt + time.Duration(d)*time.Millisecond,
					Node: fmt.Sprintf("io%d", d),
					Seed: int64(100 + d),
				})
			}
			cl := integrityCluster(arch, BackendMem)
			defer cl.Close()

			populateIntegrity(t, cl, fileSize, events...)
			readBackIntegrity(t, cl, fileSize, step, 50*time.Millisecond)

			if got := counterSum(cl, "faults_injected_total"); got < 1 {
				t.Fatalf("faults_injected_total = %v, want >= 1 (no rot injected)", got)
			}
			if got := counterSum(cl, "nfs_client_corrupt_reads_total") +
				counterSum(cl, "pvfs_client_corrupt_reads_total"); got < 1 {
				t.Fatalf("no corrupt read ever detected — the rot was never exercised")
			}
			if got := repairSum(cl); got < 1 {
				t.Fatalf("read repairs = %v, want >= 1 — corruption was retried, not repaired", got)
			}
		})
	}
}

// TestScrubRepairsLatentRot exercises the background path on both store
// backends: rot lands while nobody is reading (a latent fault), a scrub
// pass finds and repairs every instance from the replicas, a second pass
// confirms the stores are clean, and the subsequent cold read needs zero
// foreground repairs.  The scrubber walks each store and its extents, which
// mem and wal implement apart.
func TestScrubRepairsLatentRot(t *testing.T) {
	for _, backend := range []string{BackendMem, BackendWAL} {
		t.Run(backend, func(t *testing.T) { scrubRepairsLatentRot(t, backend) })
	}
}

func scrubRepairsLatentRot(t *testing.T, backend string) {
	const fileSize = 512 << 10
	var events []faults.Event
	for d := 0; d < 3; d++ { // primary replica group only
		events = append(events, faults.BitRot{
			At:   5 * time.Millisecond,
			Node: fmt.Sprintf("io%d", d),
			Seed: int64(200 + d),
		})
	}
	cl := integrityCluster(ArchPVFS2, backend)
	defer cl.Close()
	populateIntegrity(t, cl, fileSize, events...)

	// Apply the rot with no foreground reads in flight: the kernel drains
	// the fault plan even though the applications return immediately.  The
	// plan fires in this run only, so the rot stays latent behind the scrub.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error { return nil }); err != nil {
		t.Fatalf("rot run: %v", err)
	}

	var found, repaired float64
	for _, c := range scrubPass(t, cl) {
		found += c.found
		repaired += c.repaired
	}
	if found < 1 {
		t.Fatalf("scrub found %v corrupt chunks, want >= 1 (rot never landed?)", found)
	}
	if repaired != found {
		t.Fatalf("scrub repaired %v of %v corrupt chunks", repaired, found)
	}
	if got := counterSum(cl, "scrub_repaired_total"); got != repaired {
		t.Fatalf("scrub_repaired_total = %v, want %v", got, repaired)
	}

	// A second pass over the repaired stores finds nothing.
	for node, c := range scrubPass(t, cl) {
		if c.found != 0 {
			t.Fatalf("node %s still corrupt after repair: %+v", node, c)
		}
	}

	// The foreground never sees the rot: bytes are right and no read had
	// to repair anything — the scrubber got there first.
	readBackIntegrity(t, cl, fileSize, 64<<10, 0)
	if got := repairSum(cl); got != 0 {
		t.Fatalf("foreground repaired %v extents after a clean scrub", got)
	}
}

// TestScheduledScrubRunsOnBothTransports: the one run loop replays
// scheduled passes on the fabric and over TCP alike — the queued passes are
// taken by the next run and every one of them runs, even though the
// applications return at once.
func TestScheduledScrubRunsOnBothTransports(t *testing.T) {
	for _, tr := range []TransportKind{TransportSim, TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			cl := New(Config{Arch: ArchPVFS2, Clients: 1, Transport: tr, Real: true})
			defer cl.Close()
			if err := writeMemberCorpus(cl, 100_000); err != nil {
				t.Fatal(err)
			}
			schedule(t, cl, faults.Scrub{At: time.Millisecond}, faults.Scrub{At: 2 * time.Millisecond})
			if n := queued(cl); n != 2 {
				t.Fatalf("%d passes queued, want 2", n)
			}
			before := scrubTallies(cl)
			if _, err := cl.Run(func(*rpc.Ctx, *Mount, int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if n, ran := queued(cl), len(scrubbed(before, scrubTallies(cl))); n != 0 || ran == 0 {
				t.Fatalf("after the run: %d passes still queued, %d nodes scanned; want 0 and some", n, ran)
			}
		})
	}
}

// TestScheduledScrubRunsInBackground drives the scrub-driver path: a pass
// scheduled mid-run repairs rot injected earlier in the same run, while the
// applications keep running — no repair is counted before the pass's
// scheduled 20 ms, and at least one after.
func TestScheduledScrubRunsInBackground(t *testing.T) {
	const fileSize = 256 << 10
	var events []faults.Event
	for d := 0; d < 3; d++ { // primary replica group only
		events = append(events, faults.BitRot{
			At:   2 * time.Millisecond,
			Node: fmt.Sprintf("io%d", d),
			Seed: int64(300 + d),
		})
	}
	cl := integrityCluster(ArchPVFS2, BackendMem)
	defer cl.Close()
	populateIntegrity(t, cl, fileSize, append(events, faults.Scrub{At: 20 * time.Millisecond})...)

	start := cl.Now()
	var early atomic.Value
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		// A repair takes a verified chunk read and a replica fetch, so
		// none can be counted at the very instant the pass starts.
		ctx.P.Sleep(start + 20*time.Millisecond - cl.Now())
		early.Store(counterSum(cl, "scrub_repaired_total"))
		ctx.P.Sleep(180 * time.Millisecond) // outlive the scheduled pass
		return nil
	}); err != nil {
		t.Fatalf("run with scheduled scrub: %v", err)
	}

	if got := early.Load(); got != 0.0 {
		t.Fatalf("%v chunks repaired before the pass's scheduled 20ms, want 0", got)
	}
	if repaired := counterSum(cl, "scrub_repaired_total"); repaired < 1 {
		t.Fatalf("scheduled scrub repaired %v chunks, want >= 1", repaired)
	}
	readBackIntegrity(t, cl, fileSize, 64<<10, 0)
}

// TestScrubDeterministicUnderSeedReplay pins the acceptance requirement:
// identically seeded clusters running the identical rot-then-scrub sequence
// produce identical per-node pass counts and identical repair counters.
func TestScrubDeterministicUnderSeedReplay(t *testing.T) {
	const fileSize = 384 << 10
	type trace struct {
		outs     map[string]scrubTally
		repaired float64
		found    float64
	}
	runOnce := func() trace {
		var events []faults.Event
		for d := 0; d < 3; d++ { // primary replica group only
			events = append(events, faults.BitRot{
				At:   5 * time.Millisecond,
				Node: fmt.Sprintf("io%d", d),
				Seed: int64(400 + d),
			})
		}
		cl := integrityCluster(ArchDirectPNFS, BackendMem)
		defer cl.Close()
		populateIntegrity(t, cl, fileSize, events...)
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error { return nil }); err != nil {
			t.Fatalf("rot run: %v", err)
		}
		return trace{
			outs:     scrubPass(t, cl),
			repaired: counterSum(cl, "scrub_repaired_total"),
			found:    counterSum(cl, "scrub_errors_found_total"),
		}
	}
	a, b := runOnce(), runOnce()
	if fmt.Sprintf("%+v", a.outs) != fmt.Sprintf("%+v", b.outs) {
		t.Fatalf("scrub reports diverged under seed replay:\n%+v\nvs\n%+v", a.outs, b.outs)
	}
	if a.repaired != b.repaired || a.found != b.found {
		t.Fatalf("scrub counters diverged: (%v,%v) vs (%v,%v)",
			a.found, a.repaired, b.found, b.repaired)
	}
	if a.found < 1 {
		t.Fatal("replayed scrub found nothing (vacuous)")
	}
}

// TestScrubScanFailureReachesTheRun: on the wal backend a crashed node's
// store cannot be walked, so its scan fails and Reconcile says so, naming
// the node, while the pass still scans every other node.
func TestScrubScanFailureReachesTheRun(t *testing.T) {
	cl := New(Config{Arch: ArchPVFS2, Clients: 1, Real: true, StripeSize: 64 << 10, Backend: BackendWAL})
	defer cl.Close()
	if err := writeMemberCorpus(cl, 600_000); err != nil {
		t.Fatal(err)
	}
	cl.CrashVolatile("io1")
	schedule(t, cl, faults.Scrub{})
	before := scrubTallies(cl)
	err := cl.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "io1") {
		t.Fatalf("Reconcile after a scan of crashed io1 returned %v, want an error naming io1", err)
	}
	moved := scrubbed(before, scrubTallies(cl))
	for _, m := range cl.liveMembers() {
		if _, ok := moved[m.node.Name]; ok == (m.node.Name == "io1") {
			t.Errorf("%s: scrub_extents_total moved = %v", m.node.Name, ok)
		}
	}
}

// walkless is a content store without the scrubber's Walk and Extents.
type walkless struct{ store.Store }

// TestUnscannableStoreFailsTheScrub: a member whose store the scrubber
// cannot walk is a scan failure the run returns, not a member skipped.
func TestUnscannableStoreFailsTheScrub(t *testing.T) {
	memFactory, _ := BackendFactory(BackendMem)
	cl := New(Config{Arch: ArchPVFS2, Clients: 1,
		ContentBackend: func(node string, disk *simdisk.Disk, reg *metrics.Registry) store.Store {
			return walkless{memFactory(node, disk, reg)}
		},
	})
	defer cl.Close()
	schedule(t, cl, faults.Scrub{})
	err := cl.Reconcile()
	if err == nil || !strings.Contains(err.Error(), "scrub io0: store") {
		t.Fatalf("Reconcile scrubbing walkless stores returned %v, want an error naming io0", err)
	}
}

// damageTransport wraps a transport so that every handler it serves hands
// each decoded request to damage first.
type damageTransport struct {
	rpc.Transport
	damage func(req any)
}

func (d damageTransport) Serve(node, service string, reg *rpc.Registry, h rpc.Handler, threads int) (string, error) {
	return d.Transport.Serve(node, service, reg, func(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
		d.damage(req)
		return h(ctx, proc, req)
	}, threads)
}

// TestWriteDamageHealedOverTCP is the WRITE twin of the READ path's
// in-flight damage test, on every architecture with NFS servers: one byte of
// the first WRITE payload a server decodes is flipped after the client
// sealed it.  The sums the WRITE carries catch it — in the data server's
// store on Direct-pNFS, before the forward to the PVFS2 daemons on the
// others — the client sends the bytes again once, and the file reads back
// right from cold caches.  Before WRITEs carried sums the damage was stored.
func TestWriteDamageHealedOverTCP(t *testing.T) {
	const block = 64 << 10
	defer func(prev func(*Cluster) rpc.Transport) { nfsTransport = prev }(nfsTransport)
	for _, arch := range Archs {
		if arch == ArchPVFS2 {
			continue // no NFS server to send a WRITE to
		}
		t.Run(string(arch), func(t *testing.T) {
			var writes, flipped atomic.Int32
			nfsTransport = func(cl *Cluster) rpc.Transport {
				return damageTransport{cl.tr, func(req any) {
					args, ok := req.(*nfs.CompoundArgs)
					if !ok {
						return
					}
					for _, op := range args.Ops {
						if w, ok := op.(*nfs.OpWrite); ok && len(w.Data.Bytes) >= block {
							writes.Add(1)
							if flipped.CompareAndSwap(0, 1) {
								w.Data.Bytes[block/2] ^= 0x08
							}
						}
					}
				}}
			}
			cl := New(Config{
				Arch: arch, Clients: 1, Backends: 4, Real: true, Transport: TransportTCP,
				StripeSize: block, WSize: block, RSize: block,
			})
			defer cl.Close()
			want := failoverPattern(3, 4*block)
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Create(ctx, "/damaged")
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, 0, payload.Real(want)); err != nil {
					return err
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				m.DropCaches()
				if f, err = m.Open(ctx, "/damaged"); err != nil {
					return err
				}
				got, n, err := m.Read(ctx, f, 0, int64(len(want)))
				if err != nil {
					return err
				}
				defer got.Release()
				if n != int64(len(want)) || !bytes.Equal(got.Bytes, want) {
					return fmt.Errorf("read back %d bytes; the bytes damaged in flight were stored", n)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatal(err)
			}
			if flipped.Load() != 1 || writes.Load() != 5 {
				t.Fatalf("%d damaged of %d block WRITEs; want one damaged, and four blocks plus one re-send",
					flipped.Load(), writes.Load())
			}
		})
	}
}
