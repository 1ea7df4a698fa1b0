package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// chaosSeed pins the CI chaos smoke run; change it deliberately, never per
// run — reproducibility is the point (see docs/FAULTS.md).
const chaosSeed = 20260730

// TestChaosAllArchitectures drives the faults.Chaos harness on every
// architecture: each round derives a reproducible random plan (crash +
// restart, maybe a lossy link, maybe a slow disk), runs a paced write/read
// workload under it with real bytes end to end, and verifies the read-back
// is byte-identical to what was written.  A failure message names the
// round's derived seed so the exact plan can be replayed.
func TestChaosAllArchitectures(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 32 << 10
		horizon  = 500 * time.Millisecond
		rounds   = 2
	)
	for ai, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			// Crash candidates come from the topology itself: every storage
			// node except the metadata manager (a probe cluster answers,
			// since plans must exist before the cluster they attach to).
			probe := New(Config{Arch: arch})
			nodes := probe.FaultCandidates()
			probe.Close()
			if len(nodes) == 0 {
				t.Fatal("no crashable storage nodes")
			}
			faults.Chaos(t, chaosSeed+int64(ai), rounds, nodes, horizon, func(round int, plan *faults.Plan) error {
				cl := New(Config{
					Arch: arch, Clients: 2, Real: true,
					StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
					Seed: plan.Seed,
				})
				defer cl.Close()
				if err := cl.Schedule(plan); err != nil {
					return err
				}
				steps := int64(fileSize / step)
				pace := horizon / time.Duration(steps)
				_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
					f, err := m.Create(ctx, fmt.Sprintf("/chaos.%d", i))
					if err != nil {
						return fmt.Errorf("create: %w", err)
					}
					want := failoverPattern(100*round+i, fileSize)
					// Paced writes span the whole fault horizon, so the
					// crash (and any link/disk degradation) lands mid-burst.
					for off := int64(0); off < fileSize; off += step {
						if err := m.Write(ctx, f, off, payload.Real(want[off:off+step])); err != nil {
							return fmt.Errorf("write at %d: %w", off, err)
						}
						if off%(4*step) == 0 {
							if err := m.Fsync(ctx, f); err != nil {
								return fmt.Errorf("fsync at %d: %w", off, err)
							}
						}
						ctx.P.Sleep(pace)
					}
					if err := m.Close(ctx, f); err != nil {
						return fmt.Errorf("close: %w", err)
					}
					// Cold read-back; by now the plan has healed the node
					// (or the read itself rides the recovery paths).
					m.DropCaches()
					g, err := m.Open(ctx, fmt.Sprintf("/chaos.%d", i))
					if err != nil {
						return fmt.Errorf("reopen: %w", err)
					}
					got, n, err := m.Read(ctx, g, 0, fileSize)
					if err != nil {
						return fmt.Errorf("read-back: %w", err)
					}
					if n != fileSize {
						return fmt.Errorf("read-back: %d bytes, want %d", n, fileSize)
					}
					if !bytes.Equal(got.Bytes, want) {
						return fmt.Errorf("client %d: data corrupted under %v", i, plan)
					}
					return m.Close(ctx, g)
				})
				return err
			})
		})
	}
}

// TestChaosDeterministic pins that a chaos round is replayable: two
// identically seeded clusters running the same plan fire the same number of
// injections and leave identical end state.
func TestChaosDeterministic(t *testing.T) {
	plan := faults.RandomPlan(chaosSeed, []string{"io1", "io2"}, 400*time.Millisecond)
	run := func() (float64, time.Duration) {
		cl := New(Config{
			Arch: ArchDirectPNFS, Clients: 2, Real: true,
			StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
			Seed: 7,
		})
		defer cl.Close()
		schedule(t, cl, plan.Events...)
		elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
			f, err := m.Create(ctx, fmt.Sprintf("/d.%d", i))
			if err != nil {
				return err
			}
			for off := int64(0); off < 256<<10; off += 32 << 10 {
				if err := m.Write(ctx, f, off, payload.Real(failoverPattern(i, 32<<10))); err != nil {
					return err
				}
				ctx.P.Sleep(40 * time.Millisecond)
			}
			return m.Close(ctx, f)
		})
		if err != nil {
			t.Fatal(err)
		}
		return counterSum(cl, "rpc_client_fault_errors_total"), elapsed
	}
	f1, e1 := run()
	f2, e2 := run()
	if f1 != f2 || e1 != e2 {
		t.Fatalf("chaos replay diverged: faults %v vs %v, elapsed %v vs %v", f1, f2, e1, e2)
	}
}
