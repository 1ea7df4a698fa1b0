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

// TestReplicaFailoverAvoidsMDS crashes a storage node mid-read on a
// Direct-pNFS cluster whose layout stores two full replicas of every stripe
// (pnfs.AggReplicated).  Writes fan out to both copies, so when the victim
// goes down the client's replica rung — retry the extent on its alternate
// device, before any layout eviction — must absorb every failure: reads stay
// byte-identical AND the MDS-proxy counter stays at zero, proving the
// guaranteed-correct-but-slow fallback (paper §4) was never needed.  The
// unreplicated failover suite (failover_test.go) is the contrast: there the
// same crash forces MDS-proxied reads.
func TestReplicaFailoverAvoidsMDS(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
		crashAt  = 50 * time.Millisecond
		restart  = 400 * time.Millisecond
	)
	plan := faults.NewPlan(1,
		faults.StorageNodeCrash{At: crashAt, Node: "io1"},
		faults.StorageNodeRestart{At: restart, Node: "io1"},
	)
	cl := New(Config{
		Arch: ArchDirectPNFS, Clients: 2, Real: true,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
		// Two replicas over six devices: io0-io2 hold the primary copy,
		// io3-io5 the mirror, so the io1 crash always leaves an alternate.
		Aggregation: pnfs.AggReplicated,
		AggParams:   []int64{2, 64 << 10},
	})
	defer cl.Close()

	// Populate before the plan is scheduled: Map fans every write out to
	// both replica devices, so each copy independently holds the whole file.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/rep.%d", i))
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
	schedule(t, cl, plan.Events...)

	// Paced cold read spanning the outage.  ReadMap picks one replica per
	// chunk by seed, so some reads do land on the dead io1 — the replica
	// rung re-drives those onto the mirror device.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		m.DropCaches()
		f, err := m.Open(ctx, fmt.Sprintf("/rep.%d", i))
		if err != nil {
			return err
		}
		want := failoverPattern(i, fileSize)
		for off := int64(0); off < fileSize; off += step {
			got, n, err := m.Read(ctx, f, off, step)
			if err != nil {
				return fmt.Errorf("read at %d: %w", off, err)
			}
			if n != step {
				return fmt.Errorf("read at %d: got %d bytes, want %d", off, n, step)
			}
			if !bytes.Equal(got.Bytes, want[off:off+step]) {
				return fmt.Errorf("client %d: bytes at %d differ through replica failover", i, off)
			}
			ctx.P.Sleep(60 * time.Millisecond)
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("read during outage: %v", err)
	}

	// Non-vacuousness: the crash fired and reads actually hit the dead node.
	if got := counterSum(cl, "faults_injected_total"); got < 2 {
		t.Fatalf("plan applied %v events, want the crash/restart pair", got)
	}
	if got := counterSum(cl, "rpc_client_fault_errors_total"); got == 0 {
		t.Fatal("no call ever hit the crashed node — the scenario tested nothing")
	}
	// The payoff: every failed read healed on a replica, never the MDS.
	if got := counterSum(cl, "nfs_client_mds_fallbacks_total"); got != 0 {
		t.Fatalf("nfs_client_mds_fallbacks_total = %v, want 0 — replicas should absorb the outage", got)
	}
}
