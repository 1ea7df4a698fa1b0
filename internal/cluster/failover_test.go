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

// counterSum totals every series of a counter family in the cluster's
// metrics registry — used to prove a fault scenario actually engaged the
// machinery under test (non-vacuousness).
func counterSum(cl *Cluster, name string) float64 {
	return cl.Metrics().Snapshot().Total(name)
}

// failoverPattern gives every client a distinct, position-dependent byte
// pattern so striping or fallback bugs that land bytes in the wrong place
// cannot cancel out.
func failoverPattern(client int, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(37*client + j + j>>8)
	}
	return b
}

// TestFailoverAllArchitectures is the table-driven failover suite: on every
// architecture, a storage node crashes in the middle of a paced read run
// and restarts before it ends.  Reads issued during the outage must survive
// through the recovery paths (layout eviction + refetch, MDS-proxied I/O,
// striped-I/O retry) and every byte read — during the outage and after
// recovery — must be identical to what was written.
func TestFailoverAllArchitectures(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
		crashAt  = 50 * time.Millisecond
		restart  = 350 * time.Millisecond
	)
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			plan := faults.NewPlan(1,
				faults.StorageNodeCrash{At: crashAt, Node: "io1"},
				faults.StorageNodeRestart{At: restart, Node: "io1"},
			)
			cl := New(Config{
				Arch: arch, Clients: 2, Real: true,
				StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
				Faults: plan,
			})
			defer cl.Close()

			// Populate with faults disarmed: only the verified read run
			// suffers the crash.
			cl.ArmFaults(false)
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				f, err := m.Create(ctx, fmt.Sprintf("/fo.%d", i))
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

			// Paced cold read spanning the crash/restart window.
			readBack := func(pace time.Duration) error {
				_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
					m.DropCaches()
					f, err := m.Open(ctx, fmt.Sprintf("/fo.%d", i))
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
							return fmt.Errorf("client %d: bytes at %d differ after failover", i, off)
						}
						if pace > 0 {
							ctx.P.Sleep(pace)
						}
					}
					return m.Close(ctx, f)
				})
				return err
			}
			// ~8 steps x 60 ms of pacing stretches the read run well past
			// the restart, so the outage lands mid-read.
			if err := readBack(60 * time.Millisecond); err != nil {
				t.Fatalf("read during outage: %v", err)
			}
			// Non-vacuousness: the plan fired and at least one call hit the
			// crashed node.
			if got := counterSum(cl, "faults_injected_total"); got < 2 {
				t.Fatalf("plan applied %v events, want the crash/restart pair", got)
			}
			if got := counterSum(cl, "rpc_client_fault_errors_total"); got == 0 {
				t.Fatal("no call ever hit the crashed node — the scenario tested nothing")
			}
			// A second cold read after full recovery must also be
			// byte-identical (and runs with the plan re-armed: the paired
			// crash/restart replays and heals again).
			if err := readBack(60 * time.Millisecond); err != nil {
				t.Fatalf("read after recovery: %v", err)
			}
		})
	}
}

// TestFailoverTCPTransport runs the crash/restart scenario over real
// loopback sockets: the wall-clock fault driver takes the node's services
// down mid-write, the same recovery machinery (fast-fail DownError, layout
// refetch, MDS fallback, retry backoff) rides it out on real goroutines,
// and the read-back must be byte-identical.  Racy recovery state shows up
// here under -race, not on the cooperative simulator.
func TestFailoverTCPTransport(t *testing.T) {
	const (
		fileSize = 256 << 10
		step     = 32 << 10
	)
	plan := faults.NewPlan(1,
		faults.StorageNodeCrash{At: 30 * time.Millisecond, Node: "io1"},
		faults.StorageNodeRestart{At: 200 * time.Millisecond, Node: "io1"},
	)
	cl := New(Config{
		Arch: ArchDirectPNFS, Clients: 2, Real: true,
		Transport:  TransportTCP,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
		Faults: plan,
	})
	defer cl.Close()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/tcp.%d", i))
		if err != nil {
			return err
		}
		want := failoverPattern(i, fileSize)
		for off := int64(0); off < fileSize; off += step {
			if err := m.Write(ctx, f, off, payload.Real(want[off:off+step])); err != nil {
				return fmt.Errorf("write at %d: %w", off, err)
			}
			if err := m.Fsync(ctx, f); err != nil {
				return fmt.Errorf("fsync at %d: %w", off, err)
			}
			time.Sleep(30 * time.Millisecond) // span the outage window
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		m.DropCaches()
		g, err := m.Open(ctx, fmt.Sprintf("/tcp.%d", i))
		if err != nil {
			return err
		}
		got, n, err := m.Read(ctx, g, 0, fileSize)
		if err != nil {
			return err
		}
		if n != fileSize || !bytes.Equal(got.Bytes, want) {
			return fmt.Errorf("client %d: read-back differs (n=%d)", i, n)
		}
		return m.Close(ctx, g)
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterSum(cl, "faults_injected_total"); got != 2 {
		t.Fatalf("plan applied %v events, want 2", got)
	}
}

// TestFailoverWriteRecovery crashes a storage node in the middle of a write
// burst on every architecture: writes must land (via MDS-proxied fallback
// or retry) and a cold read after recovery must return exactly what was
// written.
func TestFailoverWriteRecovery(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
		crashAt  = 40 * time.Millisecond
		restart  = 300 * time.Millisecond
	)
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			plan := faults.NewPlan(1,
				faults.StorageNodeCrash{At: crashAt, Node: "io1"},
				faults.StorageNodeRestart{At: restart, Node: "io1"},
			)
			cl := New(Config{
				Arch: arch, Clients: 2, Real: true,
				StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
				Faults: plan,
			})
			defer cl.Close()

			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				f, err := m.Create(ctx, fmt.Sprintf("/fw.%d", i))
				if err != nil {
					return err
				}
				want := failoverPattern(i, fileSize)
				for off := int64(0); off < fileSize; off += step {
					if err := m.Write(ctx, f, off, payload.Real(want[off:off+step])); err != nil {
						return fmt.Errorf("write at %d: %w", off, err)
					}
					if err := m.Fsync(ctx, f); err != nil {
						return fmt.Errorf("fsync at %d: %w", off, err)
					}
					ctx.P.Sleep(50 * time.Millisecond)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatalf("write under crash: %v", err)
			}

			// Cold read-back with the cluster healthy (the plan healed the
			// node before the run ended; disarm for the verification pass).
			cl.ArmFaults(false)
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				m.DropCaches()
				f, err := m.Open(ctx, fmt.Sprintf("/fw.%d", i))
				if err != nil {
					return err
				}
				got, n, err := m.Read(ctx, f, 0, fileSize)
				if err != nil {
					return err
				}
				if n != fileSize {
					return fmt.Errorf("read %d bytes, want %d", n, fileSize)
				}
				if !bytes.Equal(got.Bytes, failoverPattern(i, fileSize)) {
					return fmt.Errorf("client %d: read-back differs from written data", i)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatalf("verify after recovery: %v", err)
			}
		})
	}
}

// TestFailoverWALBackend reruns the mid-read crash/restart scenario on the
// write-ahead-logged backend (docs/BACKENDS.md).  Unlike the volatile
// default — where a crashed node reboots with its store image intact — the
// crash here discards the victim's in-memory image and handle table, so
// every byte read after the restart exists only because recovery replayed
// the journal.  Acknowledged (fsynced) pre-crash writes must read back
// byte-identically on every architecture, and the replay must be
// non-vacuous.
func TestFailoverWALBackend(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
		crashAt  = 50 * time.Millisecond
		restart  = 350 * time.Millisecond
	)
	for _, arch := range Archs {
		t.Run(string(arch), func(t *testing.T) {
			plan := faults.NewPlan(1,
				faults.StorageNodeCrash{At: crashAt, Node: "io1"},
				faults.StorageNodeRestart{At: restart, Node: "io1"},
			)
			cl := New(Config{
				Arch: arch, Clients: 2, Real: true,
				StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
				Faults:  plan,
				Backend: BackendWAL,
			})
			defer cl.Close()

			// Populate with faults disarmed; Fsync makes every write
			// durable before the crash can land.
			cl.ArmFaults(false)
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				f, err := m.Create(ctx, fmt.Sprintf("/wal.%d", i))
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

			// Paced cold read spanning the outage: bytes served during it
			// come through the recovery paths, bytes after it come from the
			// victim's replayed image.
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				m.DropCaches()
				f, err := m.Open(ctx, fmt.Sprintf("/wal.%d", i))
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
						return fmt.Errorf("client %d: bytes at %d differ after recovery", i, off)
					}
					ctx.P.Sleep(60 * time.Millisecond)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatalf("read across crash: %v", err)
			}

			// Non-vacuousness: the crash fired and recovery replayed at
			// least one journal record — otherwise this test degenerated
			// into the volatile failover suite.
			if got := counterSum(cl, "faults_injected_total"); got < 2 {
				t.Fatalf("plan applied %v events, want the crash/restart pair", got)
			}
			if got := counterSum(cl, "store_wal_replays_total"); got < 1 {
				t.Fatalf("store_wal_replays_total = %v, want >= 1 replayed record", got)
			}
		})
	}
}
