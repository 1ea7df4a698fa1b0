package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
)

// integrityCluster builds a replicated cluster for the integrity suites:
// every stripe stored twice, real payloads (there have to be bytes to rot),
// and wire checksums on.  3-tier halves its backends into storage nodes, so
// it gets eight to keep the copy count dividing the storage-node count.
func integrityCluster(arch Arch, plan *faults.Plan) *Cluster {
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
		Faults:        plan,
	})
}

// populateIntegrity writes each client's distinct pattern with faults
// disarmed, so both replicas hold clean, complete copies.
func populateIntegrity(t *testing.T, cl *Cluster, fileSize int) {
	t.Helper()
	cl.ArmFaults(false)
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
	cl.ArmFaults(true)
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
			cl := integrityCluster(arch, faults.NewPlan(1, events...))
			defer cl.Close()

			populateIntegrity(t, cl, fileSize)
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

// TestScrubRepairsLatentRot exercises the background path: rot lands while
// nobody is reading (a latent fault), a scrub pass finds and repairs every
// instance from the replicas, a second pass confirms the stores are clean,
// and the subsequent cold read needs zero foreground repairs.
func TestScrubRepairsLatentRot(t *testing.T) {
	const fileSize = 512 << 10
	var events []faults.Event
	for d := 0; d < 3; d++ { // primary replica group only
		events = append(events, faults.BitRot{
			At:   5 * time.Millisecond,
			Node: fmt.Sprintf("io%d", d),
			Seed: int64(200 + d),
		})
	}
	cl := integrityCluster(ArchPVFS2, faults.NewPlan(1, events...))
	defer cl.Close()
	populateIntegrity(t, cl, fileSize)

	// Apply the rot with no foreground reads in flight: the kernel drains
	// the fault plan even though the applications return immediately.
	// Disarm afterwards — an armed plan replays on every Run, and this
	// test needs the rot to stay latent, not re-injected behind the scrub.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error { return nil }); err != nil {
		t.Fatalf("rot run: %v", err)
	}
	cl.ArmFaults(false)

	outs, err := cl.ScrubPass()
	if err != nil {
		t.Fatalf("scrub pass: %v", err)
	}
	var found, repaired int
	for _, o := range outs {
		found += o.Result.Found
		repaired += o.Result.Repaired
	}
	if found < 1 {
		t.Fatalf("scrub found %d corrupt chunks, want >= 1 (rot never landed?)", found)
	}
	if repaired != found {
		t.Fatalf("scrub repaired %d of %d corrupt chunks", repaired, found)
	}
	if got := counterSum(cl, "scrub_repaired_total"); got != float64(repaired) {
		t.Fatalf("scrub_repaired_total = %v, want %d", got, repaired)
	}

	// A second pass over the repaired stores finds nothing.
	outs, err = cl.ScrubPass()
	if err != nil {
		t.Fatalf("second scrub pass: %v", err)
	}
	for _, o := range outs {
		if o.Result.Found != 0 {
			t.Fatalf("node %s still corrupt after repair: %+v", o.Node, o.Result)
		}
	}

	// The foreground never sees the rot: bytes are right and no read had
	// to repair anything — the scrubber got there first.
	readBackIntegrity(t, cl, fileSize, 64<<10, 0)
	if got := repairSum(cl); got != 0 {
		t.Fatalf("foreground repaired %v extents after a clean scrub", got)
	}
}

// TestScheduleScrubRefusedWithoutADriver: only the simulated run loop replays
// scheduled passes, so a TCP cluster must refuse the schedule — an error the
// caller sees, nothing queued — where it used to accept times that never ran;
// the simulated cluster queues them, and the next run takes them.
func TestScheduleScrubRefusedWithoutADriver(t *testing.T) {
	queued := func(cl *Cluster) int {
		cl.scrubMu.Lock()
		defer cl.scrubMu.Unlock()
		return len(cl.scrubTimes)
	}
	tcp := New(Config{Arch: ArchPVFS2, Clients: 1, Transport: TransportTCP})
	defer tcp.Close()
	if err := tcp.ScheduleScrub(time.Millisecond); err == nil {
		t.Error("a TCP cluster accepted scheduled scrub passes it has no driver to run")
	}
	if n := queued(tcp); n != 0 {
		t.Errorf("refused schedule left %d pass times queued", n)
	}
	sim := New(Config{Arch: ArchPVFS2, Clients: 1})
	defer sim.Close()
	if err := sim.ScheduleScrub(time.Millisecond, 2*time.Millisecond); err != nil {
		t.Fatalf("simulated cluster refused a schedule: %v", err)
	}
	if n := queued(sim); n != 2 {
		t.Fatalf("%d pass times queued, want 2", n)
	}
	if _, err := sim.Run(func(*rpc.Ctx, *Mount, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n, ran := queued(sim), len(sim.ScrubResults()); n != 0 || ran == 0 {
		t.Fatalf("after the run: %d times still queued, %d pass outcomes; want 0 and some", n, ran)
	}
}

// TestScheduledScrubRunsInBackground drives the scrub-driver path: a pass
// scheduled mid-run repairs rot injected earlier in the same run, while the
// applications keep reading — and the recorded outcome carries the repairs.
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
	cl := integrityCluster(ArchPVFS2, faults.NewPlan(1, events...))
	defer cl.Close()
	populateIntegrity(t, cl, fileSize)

	cl.ScheduleScrub(20 * time.Millisecond)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		ctx.P.Sleep(200 * time.Millisecond) // outlive the scheduled pass
		return nil
	}); err != nil {
		t.Fatalf("run with scheduled scrub: %v", err)
	}

	outs := cl.ScrubResults()
	if len(outs) == 0 {
		t.Fatal("scheduled scrub never ran")
	}
	var repaired int
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("scrub outcome on %s: %v", o.Node, o.Err)
		}
		if o.At != 20*time.Millisecond {
			t.Fatalf("outcome recorded at %v, want the scheduled 20ms", o.At)
		}
		repaired += o.Result.Repaired
	}
	if repaired < 1 {
		t.Fatalf("scheduled scrub repaired %d chunks, want >= 1", repaired)
	}
	cl.ArmFaults(false) // the armed plan would replay into the read run
	readBackIntegrity(t, cl, fileSize, 64<<10, 0)
}

// TestScrubDeterministicUnderSeedReplay pins the acceptance requirement:
// identically seeded clusters running the identical rot-then-scrub sequence
// produce identical pass reports and identical repair counters.
func TestScrubDeterministicUnderSeedReplay(t *testing.T) {
	const fileSize = 384 << 10
	type trace struct {
		outs     []ScrubOutcome
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
		cl := integrityCluster(ArchDirectPNFS, faults.NewPlan(7, events...))
		defer cl.Close()
		populateIntegrity(t, cl, fileSize)
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error { return nil }); err != nil {
			t.Fatalf("rot run: %v", err)
		}
		outs, err := cl.ScrubPass()
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		return trace{
			outs:     outs,
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
