package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
)

// memberPattern is the per-file corpus the membership tests write and then
// demand back byte-identically after the topology has changed underneath it.
func memberPattern(i, size int) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte((j*7 + i*13) % 251)
	}
	return data
}

// schedule queues the events as one plan, failing the test if Schedule
// refuses them.
func schedule(t *testing.T, cl *Cluster, events ...faults.Event) {
	t.Helper()
	if err := cl.Schedule(faults.NewPlan(1, events...)); err != nil {
		t.Fatal(err)
	}
}

// queued counts the events waiting for the next run.
func queued(cl *Cluster) int {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return len(cl.schedule.Events)
}

// writeMemberCorpus writes each client's pattern file and syncs it.
func writeMemberCorpus(cl *Cluster, size int) error {
	_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/member.%d", i))
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Real(memberPattern(i, size))); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	})
	return err
}

// verifyMemberCorpus reads every pattern file back through the full protocol
// stack and compares bytes.
func verifyMemberCorpus(cl *Cluster, size int) error {
	_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Open(ctx, fmt.Sprintf("/member.%d", i))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		want := memberPattern(i, size)
		got, n, err := m.Read(ctx, f, 0, int64(size))
		if err != nil || n != int64(size) {
			return fmt.Errorf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got.Bytes, want) {
			return fmt.Errorf("data corrupted after membership change")
		}
		return m.Close(ctx, f)
	})
	return err
}

func TestJoinWidensClusterAndPreservesData(t *testing.T) {
	const size = 300_000
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 2, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			if err := writeMemberCorpus(cl, size); err != nil {
				t.Fatal(err)
			}
			before := len(cl.devices(memberActive))
			schedule(t, cl, faults.Join{Node: "io9"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if got := len(cl.devices(memberActive)); got != before+1 {
				t.Fatalf("active members %d, want %d", got, before+1)
			}
			if cl.rebalanceBytes.Value() == 0 {
				t.Fatal("join migrated no bytes")
			}
			if cl.rebalanceFiles.Value() == 0 {
				t.Fatal("join moved no files")
			}
			if err := verifyMemberCorpus(cl, size); err != nil {
				t.Fatal(err)
			}
			// New data spreads onto the joined node's daemon.
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				f, err := m.Create(ctx, fmt.Sprintf("/post.%d", i))
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, 0, payload.Synthetic(1<<20)); err != nil {
					return err
				}
				if err := m.Fsync(ctx, f); err != nil {
					return err
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatal(err)
			}
			joined := cl.live("io9")
			if joined == nil {
				t.Fatal("joined node is no live member")
			}
			at, err := cl.PVFSMeta.Namespace().LookupPath("/post.0")
			if err != nil {
				t.Fatal(err)
			}
			if joined.storage.ObjectSize(pvfsHandle(at.ID)) == 0 {
				t.Fatal("post-join writes put no bytes on the joined node")
			}
		})
	}
}

func TestDrainRetiresDeviceIDAndPreservesData(t *testing.T) {
	const size = 300_000
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 2, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			if err := writeMemberCorpus(cl, size); err != nil {
				t.Fatal(err)
			}
			drainedID := cl.memberNamed("io1").id
			survivorIDs := map[string]pnfs.DeviceID{}
			for _, m := range cl.members {
				if m.node.Name != "io1" {
					survivorIDs[m.node.Name] = m.id
				}
			}
			schedule(t, cl, faults.Drain{Node: "io1"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if st := cl.memberNamed("io1").state; st != memberRemoved {
				t.Fatalf("io1 state %v after drain, want removed", st)
			}
			// Survivors keep their stable IDs: a drain must never re-index
			// the remaining devices (the positional-aliasing bug).
			for name, want := range survivorIDs {
				if got := cl.memberNamed(name).id; got != want {
					t.Fatalf("%s device ID changed %d -> %d across drain", name, want, got)
				}
			}
			// The drained name may not rejoin: its device ID is retired.
			if err := cl.Schedule(faults.NewPlan(1, faults.Join{Node: "io1"})); err == nil {
				t.Fatal("re-adding a drained node name was accepted")
			}
			// A fresh node gets a fresh ID, never the retired one.
			schedule(t, cl, faults.Join{Node: "io9"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if cl.memberNamed("io9").id == drainedID {
				t.Fatalf("retired device ID %d was reused by io9", drainedID)
			}
			if err := verifyMemberCorpus(cl, size); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFaultsOnDrainedNodeAreCountedNoOps(t *testing.T) {
	// The plan targets io1 — written against the original topology — but by
	// the time it runs the node has been drained away.  Every event must
	// become a counted no-op instead of a fabric-lookup panic.
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, StripeSize: 64 << 10})
	defer cl.Close()
	if err := writeMemberCorpus(cl, 300_000); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.Drain{Node: "io1"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl,
		faults.StorageNodeCrash{At: 10 * time.Millisecond, Node: "io1"},
		faults.SlowDisk{At: 20 * time.Millisecond, Node: "io1", Factor: 4},
		faults.LinkDegrade{At: 30 * time.Millisecond, Node: "io1", Loss: 0.5},
		faults.StorageNodeRestart{At: 40 * time.Millisecond, Node: "io1"},
	)
	// The measured run outlives the last event, so the driver drains the
	// whole plan against the post-drain topology.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		ctx.Sleep(60 * time.Millisecond)
		f, err := m.Open(ctx, fmt.Sprintf("/member.%d", i))
		if err != nil {
			return err
		}
		if _, n, err := m.Read(ctx, f, 0, 300_000); err != nil || n != 300_000 {
			return fmt.Errorf("read under stale plan: n=%d err=%v", n, err)
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	var skipped uint64
	for _, kind := range []string{"node-down", "disk-slow", "link"} {
		skipped += cl.skippedFaults.With(kind, "io1").Value()
	}
	if skipped < 4 {
		t.Fatalf("faults_skipped_total counted %d skips for io1, want all 4 plan events", skipped)
	}
	// Direct calls against a never-known node are counted no-ops too.
	cl.SetNodeDown("no-such-node", true)
	if got := cl.skippedFaults.With("node-down", "no-such-node").Value(); got != 1 {
		t.Fatalf("unknown-node skip count = %d, want 1", got)
	}
}

// TestMembershipValidation: Schedule checks every join and drain against
// the membership and the queue, and a refused plan queues nothing — not
// even the events before the one refused.
func TestMembershipValidation(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1})
	defer cl.Close()
	cl2 := New(Config{Arch: ArchDirectPNFS, Clients: 1, Aggregation: pnfs.AggReplicated, AggParams: []int64{2, 64 << 10}})
	defer cl2.Close()
	fault := faults.SlowDisk{At: time.Millisecond, Node: "io2", Factor: 1}
	scrub := faults.Scrub{At: time.Millisecond}
	refused := func(cl *Cluster, what string, events ...faults.Event) error {
		t.Helper()
		before := queued(cl)
		err := cl.Schedule(faults.NewPlan(1, events...))
		if err == nil {
			t.Fatalf("%s was accepted", what)
		}
		if n := queued(cl); n != before {
			t.Fatalf("%s: refused plan left %d events queued, want %d", what, n, before)
		}
		return err
	}
	refused(cl, "adding an existing node", fault, faults.Join{Node: "io1"})
	refused(cl, "draining the metadata node", scrub, faults.Drain{Node: "io0"})
	refused(cl, "draining an unknown node", faults.Drain{Node: "nope"})
	refused(cl, "two membership events for one node in one plan",
		faults.Join{Node: "io9"}, faults.Drain{At: time.Second, Node: "io9"})
	schedule(t, cl, faults.Join{Node: "io9"}, fault)
	refused(cl, "a second pending op for the same node", scrub, faults.Drain{At: time.Second, Node: "io9"})
	if n := queued(cl); n != 2 {
		t.Fatalf("%d events queued, want the accepted join and fault", n)
	}
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if n := queued(cl); n != 0 {
		t.Fatalf("%d events still queued after the run", n)
	}
	// Replica failover rests on this: a replicated layout's devices never
	// leave the device list, because neither event is admitted.
	for _, ev := range []faults.Event{faults.Join{Node: "io9"}, faults.Drain{Node: "io1"}} {
		err := refused(cl2, fmt.Sprintf("%T under a replicated aggregation", ev), ev)
		if !strings.Contains(err.Error(), "aggregation") {
			t.Fatalf("%T refused with %q, want the aggregation named", ev, err)
		}
	}
	// Faults and scrub passes need no membership support.
	schedule(t, cl2, fault, scrub)
}

// TestScheduleComposesCrashWithDrain: one plan drains io1 and, while the
// rebalance is copying, crashes a WAL-backed node and restarts it 500 ms
// later.  The crash fires on time from its own lane while the drain blocks
// the reconcile lane, the rebalance's one pass waits the outage out, and the
// corpus reads back byte-identical on the post-drain topology.  The rows:
//
//   - io2, a survivor holding source data and the new placement's shadow
//     objects, crashed at 9 ms: just after the first file's shadow objects
//     were created, before any chunk reached io2.  A shadow create that was
//     not durable would be lost, and the copy would meet a stale handle.
//   - io2 crashed at 87 ms and at 90 ms, on Direct-pNFS while one of its
//     handlers holds a request: the request must fail as a call to a down
//     node does, not with an I/O error that aborts the drain (in the
//     shadow objects' creation at 87 ms, in a metadata call of the file at
//     90 ms).
//   - io1, the drained node itself, crashed mid-copy.
func TestScheduleComposesCrashWithDrain(t *testing.T) {
	const (
		size   = 1 << 20
		outage = 500 * time.Millisecond
	)
	rows := []struct {
		node    string
		crashAt time.Duration
	}{
		{"io2", 9 * time.Millisecond},
		{"io2", 87 * time.Millisecond},
		{"io2", 90 * time.Millisecond},
		{"io1", 40 * time.Millisecond},
	}
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			for _, row := range rows {
				t.Run(fmt.Sprintf("%s@%v", row.node, row.crashAt), func(t *testing.T) {
					cl := New(Config{
						Arch: arch, Clients: 2, Real: true,
						StripeSize: 64 << 10, Backend: BackendWAL,
					})
					defer cl.Close()
					if err := writeMemberCorpus(cl, size); err != nil {
						t.Fatal(err)
					}
					start := cl.Now()
					restartAt := row.crashAt + outage
					schedule(t, cl,
						faults.Drain{Node: "io1"},
						faults.StorageNodeCrash{At: row.crashAt, Node: row.node},
						faults.StorageNodeRestart{At: restartAt, Node: row.node},
					)
					if err := cl.Reconcile(); err != nil {
						t.Fatal(err)
					}
					if migStart, migEnd := cl.MigrationWindow(); start+row.crashAt < migStart || start+restartAt >= migEnd {
						t.Fatalf("outage %v..%v is not inside the migration window %v..%v",
							row.crashAt, restartAt, migStart-start, migEnd-start)
					}
					if got := counterSum(cl, "faults_injected_total"); got != 2 {
						t.Fatalf("faults_injected_total = %v, want the crash/restart pair", got)
					}
					if got := counterSum(cl, "rpc_client_fault_errors_total"); got == 0 {
						t.Fatal("no call met the crashed node: the crash tested nothing")
					}
					if got := counterSum(cl, "rebalance_files_total"); got < 1 {
						t.Fatalf("rebalance_files_total = %v, want >= 1", got)
					}
					if st := cl.memberNamed("io1").state; st != memberRemoved {
						t.Fatalf("io1 state %v after the drain, want removed", st)
					}
					if err := verifyMemberCorpus(cl, size); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestMigrationTruncateSurvivesCrash: the object sizes a migration gives
// the shadow objects before the flip (its truncate) are as durable as the
// shadow objects' creation.  The file is sparse, so the copy leaves some
// shadow objects short of the size the new geometry gives them and the
// truncate extends them.  Every WAL storage node then crashes right after
// the drain, before anything else syncs it, and restarts: each shadow
// object keeps its size.
func TestMigrationTruncateSurvivesCrash(t *testing.T) {
	const off, n = 1 << 20, 64 << 10
	cl := New(Config{Arch: ArchPVFS2, Clients: 1, Real: true, StripeSize: 64 << 10, Backend: BackendWAL})
	defer cl.Close()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, "/sparse")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, off, payload.Real(memberPattern(i, n))); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.Drain{Node: "io1"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	place, err := cl.PVFSMeta.PlacementOf(pvfsHandle(at.ID))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]int64{}
	for _, e := range place.Dist.Mapper().Map(0, off+n) {
		id := place.Dist.Servers[e.Dev]
		want[id] = max(want[id], e.DevOff+e.Len)
	}
	check := func(when string) {
		t.Helper()
		for _, m := range cl.liveMembers() {
			if got, w := m.storage.ObjectSize(place.Data), want[uint32(m.id)]; got != w {
				t.Errorf("%s: shadow object on %s is %d bytes, want %d", when, m.node.Name, got, w)
			}
		}
	}
	check("after the drain")
	for _, m := range cl.liveMembers() {
		cl.CrashVolatile(m.node.Name)
		cl.RestartVolatile(m.node.Name)
	}
	check("after a crash right after it")
}

// scrubbedNodes lists the nodes a pass scanned, in name order.
func scrubbedNodes(counts map[string]scrubTally) []string {
	var nodes []string
	for node := range counts {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	return nodes
}

// TestScrubAfterDrain: a scrub pass after a drain, in a run or outside one,
// scans every member but the drained one.
func TestScrubAfterDrain(t *testing.T) {
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			if err := writeMemberCorpus(cl, 300_000); err != nil {
				t.Fatal(err)
			}
			schedule(t, cl, faults.Drain{Node: "io1"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			schedule(t, cl, faults.Scrub{At: time.Millisecond})
			before := scrubTallies(cl)
			if _, err := cl.Run(func(*rpc.Ctx, *Mount, int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			inRun := scrubbedNodes(scrubbed(before, scrubTallies(cl)))
			outside := scrubbedNodes(scrubPass(t, cl))
			want := "[io0 io2 io3 io4 io5]"
			if arch == ArchPNFS3Tier { // three storage nodes, two disks each
				want = "[io0 io2]"
			}
			for _, got := range [][]string{inRun, outside} {
				if fmt.Sprint(got) != want {
					t.Fatalf("a pass after the drain scanned %v, want %s", got, want)
				}
			}
		})
	}
}

// TestScrubReachesJoinedNode: a node that joins after the first scrub pass
// is scanned by the next one, and the rebalance gave it data to scan (each
// file spans more than one round of the widened stripe).
func TestScrubReachesJoinedNode(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 2, Real: true, StripeSize: 64 << 10})
	defer cl.Close()
	if err := writeMemberCorpus(cl, 600_000); err != nil {
		t.Fatal(err)
	}
	scrubPass(t, cl)
	schedule(t, cl, faults.Join{Node: "io9"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	outs := scrubPass(t, cl)
	if got, want := fmt.Sprint(scrubbedNodes(outs)), "[io0 io1 io2 io3 io4 io5 io9]"; got != want {
		t.Fatalf("the pass after the join scanned %s, want %s", got, want)
	}
	if outs["io9"].extents == 0 {
		t.Fatal("the pass scanned no extent on io9, which the rebalance gave data")
	}
}

// TestReconcileReportsOnlyItsOwnPlan: a drain that fails because io2 is
// crashed fails its own Reconcile, and no later one: a Reconcile that
// restarts io2 and scrubs every member succeeds.
func TestReconcileReportsOnlyItsOwnPlan(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, StripeSize: 64 << 10})
	defer cl.Close()
	if err := writeMemberCorpus(cl, 300_000); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.StorageNodeCrash{Node: "io2"}, faults.Drain{At: time.Millisecond, Node: "io1"})
	if err := cl.Reconcile(); err == nil {
		t.Fatal("a drain with io2 crashed succeeded")
	}
	schedule(t, cl, faults.StorageNodeRestart{Node: "io2"}, faults.Scrub{At: time.Millisecond})
	before := scrubTallies(cl)
	if err := cl.Reconcile(); err != nil {
		t.Fatalf("a restart and a scrub pass after the failed drain: %v", err)
	}
	if len(scrubbed(before, scrubTallies(cl))) == 0 {
		t.Fatal("the scrub pass scanned no node")
	}
}

// TestFailedDrainCanBeRetried: a drain whose rebalance fails because io2 is
// crashed leaves io1 draining, and draining it again once io2 is back
// resumes the rebalance: io1 leaves membership, no member stays draining,
// and the corpus reads back intact.
func TestFailedDrainCanBeRetried(t *testing.T) {
	const size = 300_000
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, StripeSize: 64 << 10})
	defer cl.Close()
	if err := writeMemberCorpus(cl, size); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.StorageNodeCrash{Node: "io2"}, faults.Drain{At: time.Millisecond, Node: "io1"})
	if err := cl.Reconcile(); err == nil {
		t.Fatal("a drain with io2 crashed succeeded")
	}
	schedule(t, cl, faults.StorageNodeRestart{Node: "io2"}, faults.Drain{At: time.Millisecond, Node: "io1"})
	if err := cl.Reconcile(); err != nil {
		t.Fatalf("the retried drain: %v", err)
	}
	if st := cl.memberNamed("io1").state; st != memberRemoved {
		t.Fatalf("io1 state %v after the retried drain, want removed", st)
	}
	if n := cl.memberGauge.With("draining").Value(); n != 0 {
		t.Fatalf(`cluster_members{state="draining"} = %d after the retried drain, want 0`, n)
	}
	if err := verifyMemberCorpus(cl, size); err != nil {
		t.Fatal(err)
	}
}

// TestOnlyWorkloadRunsObserveRunSeconds: cluster_run_seconds counts the
// runs that had applications, not a Reconcile's run of a plan alone.
func TestOnlyWorkloadRunsObserveRunSeconds(t *testing.T) {
	cl := New(Config{Arch: ArchPVFS2, Clients: 1})
	defer cl.Close()
	runs := func() uint64 {
		_, n := cl.Metrics().Snapshot().HistTotal("cluster_run_seconds")
		return n
	}
	before := runs()
	for range 3 {
		schedule(t, cl, faults.Scrub{})
		if err := cl.Reconcile(); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs() - before; got != 0 {
		t.Fatalf("three scrub-only Reconciles observed %d runs, want 0", got)
	}
	if _, err := cl.Run(func(*rpc.Ctx, *Mount, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := runs() - before; got != 1 {
		t.Fatalf("one Run observed %d runs, want 1", got)
	}
}

// objectsLeft counts the datafile objects in each member's store root,
// drained members included; members holding none are left out.
func objectsLeft(t *testing.T, cl *Cluster) map[string]int {
	t.Helper()
	left := map[string]int{}
	for _, m := range cl.members {
		st := m.storage.Store()
		names, err := st.ReadDir(st.Root())
		if err != nil {
			t.Fatalf("%s: %v", m.node.Name, err)
		}
		if len(names) > 0 {
			left[m.node.Name] = len(names)
		}
	}
	return left
}

// removeMember0 removes the file writeMemberCorpus wrote for client 0.
func removeMember0(t *testing.T, cl *Cluster) {
	t.Helper()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		return m.Remove(ctx, "/member.0")
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveAfterTwoMigrationsLeavesNoObjects: a file migrated by two joins
// has objects under three data handles — its own and two shadows — and
// removing it removes all of them, the first shadow included, on every
// daemon its record names.
func TestRemoveAfterTwoMigrationsLeavesNoObjects(t *testing.T) {
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			if err := writeMemberCorpus(cl, 300_000); err != nil {
				t.Fatal(err)
			}
			for _, node := range []string{"io8", "io9"} {
				schedule(t, cl, faults.Join{Node: node})
				if err := cl.Reconcile(); err != nil {
					t.Fatalf("join of %s: %v", node, err)
				}
			}
			if got := cl.rebalanceFiles.Value(); got != 2 {
				t.Fatalf("two joins migrated %d files, want the one file twice", got)
			}
			removeMember0(t, cl)
			if left := objectsLeft(t, cl); len(left) != 0 {
				t.Fatalf("objects left after the remove: %v", left)
			}
		})
	}
}

// TestRemoveAfterDrainEmptiesTheDrainedNode: the drain's commit removes the
// file's source object from the drained node, so the node holds no object
// once the drain is done, and removing the file afterwards leaves every
// member's store root empty.  Clients refuse the drained member.
func TestRemoveAfterDrainEmptiesTheDrainedNode(t *testing.T) {
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10})
			defer cl.Close()
			if err := writeMemberCorpus(cl, 300_000); err != nil {
				t.Fatal(err)
			}
			schedule(t, cl, faults.Drain{Node: "io1"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			if n := objectsLeft(t, cl)["io1"]; n != 0 {
				t.Fatalf("the drained io1 holds %d objects before the remove, want none", n)
			}
			if cl.dialDaemon("c0", uint32(cl.memberNamed("io1").id), false) != nil {
				t.Fatal("a client may dial the drained io1")
			}
			removeMember0(t, cl)
			if left := objectsLeft(t, cl); len(left) != 0 {
				t.Fatalf("objects left after the remove: %v", left)
			}
		})
	}
}

// TestRebalancePassesOverRemovedFiles: a file an application removes while
// a drain's rebalance runs is passed over, on 5 architectures × {mem, wal}.
// Six files move in handle order, and the fourth goes before its turn, as
// its turn begins (once the third has moved), during its copy, or after it
// moved.  The drain succeeds and moves every other file, the others read
// back byte for byte from cold caches, the drained node holds no object,
// and every object left on a daemon is one a surviving file's placement
// names — none of the removed file's, its shadow objects included.
func TestRebalancePassesOverRemovedFiles(t *testing.T) {
	const files, size, victim = 6, 1 << 20, 3
	rows := []struct {
		name  string
		moved int           // remove once this file has moved (-1: at once)
		wait  time.Duration // and this much later
	}{
		{"before its turn", -1, 5 * time.Millisecond},
		{"as its turn begins", victim - 1, 0},
		{"during its copy", victim - 1, 10 * time.Millisecond},
		{"late in its copy", victim - 1, 40 * time.Millisecond},
		{"after it moved", victim, 0},
	}
	for _, arch := range Archs {
		for _, backend := range []string{BackendMem, BackendWAL} {
			for _, row := range rows {
				t.Run(fmt.Sprintf("%s/%s/%s", arch, backend, row.name), func(t *testing.T) {
					cl := New(Config{Arch: arch, Clients: 1, Real: true, StripeSize: 64 << 10, Backend: backend})
					defer cl.Close()
					path := func(i int) string { return fmt.Sprintf("/r.%d", i) }
					if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
						for i := range files {
							if err := writeWhole(ctx, m, path(i), memberPattern(i, size)); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					handles := make([]pvfs.Handle, files)
					for i := range handles {
						at, err := cl.PVFSMeta.Namespace().LookupPath(path(i))
						if err != nil {
							t.Fatal(err)
						}
						handles[i] = pvfsHandle(at.ID)
					}
					io1 := uint32(cl.memberNamed("io1").id)
					moved := func(i int) bool {
						p, err := cl.PVFSMeta.PlacementOf(handles[i])
						return err == nil && !slices.Contains(p.Dist.Servers, io1)
					}
					schedule(t, cl, faults.Drain{Node: "io1"})
					start := cl.Now()
					var removedAt time.Duration
					if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
						for tries := 0; row.moved >= 0 && !moved(row.moved); tries++ {
							if tries == 10_000 {
								return fmt.Errorf("%s never moved", path(row.moved))
							}
							ctx.Pause(time.Millisecond)
						}
						if row.wait > 0 {
							ctx.Pause(row.wait)
						}
						removedAt = cl.Now()
						return m.Remove(ctx, path(victim))
					}); err != nil {
						t.Fatal(err)
					}
					if _, migEnd := cl.MigrationWindow(); removedAt >= migEnd {
						t.Fatalf("the remove at %v came after the migration window's end %v", removedAt-start, migEnd-start)
					}
					want := uint64(files - 1)
					if row.moved == victim {
						want = files
					}
					if got := cl.rebalanceFiles.Value(); got != want {
						t.Fatalf("the drain moved %d files, want %d", got, want)
					}
					for _, m := range cl.Mounts() {
						m.DropCaches()
					}
					if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
						for i := range files {
							if i == victim {
								continue
							}
							if err := readWhole(ctx, m, path(i), memberPattern(i, size)); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if n := objectsLeft(t, cl)["io1"]; n != 0 {
						t.Fatalf("the drained io1 holds %d objects", n)
					}
					placed := map[uint32]map[pvfs.Handle]bool{}
					for i, h := range handles {
						if i == victim {
							continue
						}
						p, err := cl.PVFSMeta.PlacementOf(h)
						if err != nil {
							t.Fatal(err)
						}
						for _, id := range p.Dist.Servers {
							if placed[id] == nil {
								placed[id] = map[pvfs.Handle]bool{}
							}
							placed[id][p.Data] = true
						}
					}
					for _, m := range cl.members {
						st := m.storage.Store()
						names, err := st.ReadDir(st.Root())
						if err != nil {
							t.Fatal(err)
						}
						for _, name := range names {
							if h, ok := pvfs.ObjectHandle(name); !ok || !placed[uint32(m.id)][h] {
								t.Errorf("%s keeps object %s, which no surviving file's placement names", m.node.Name, name)
							}
						}
					}
				})
			}
		}
	}
}
