package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
)

// callsTo reads rpc_client_calls_total for one remote service.
func callsTo(cl *Cluster, service string) (n float64) {
	for _, fam := range cl.Metrics().Snapshot().Metrics {
		if fam.Name != "rpc_client_calls_total" {
			continue
		}
		for _, ser := range fam.Series {
			if ser.Labels["service"] == service {
				n += ser.Value
			}
		}
	}
	return n
}

// TestReplicaLadderBounds pins the attempt bound of every read ladder to the
// rung table in docs/FAULTS.md "Recovery paths per architecture": one 64 KB read (one extent,
// stored twice) against one rotten copy, one down copy, and both copies
// rotten issues exactly the calls the table's bounds add up to — per remote
// service, so a rung applied twice, or alternates walked by two layers, moves
// a count — repairs the extent at most once however often it is read, and
// hands back the checksum failure when no copy is clean.  The scrub rows do
// the same for a scrub pass, whose repair fetch is the same replica rung, and
// the last rows for the write ladders: a write-back extent and a COMMIT whose
// data server stays down.
func TestReplicaLadderBounds(t *testing.T) {
	const (
		unit   = 64 << 10
		copies = 2
		// The extent under test is the file's second stripe unit: device 1
		// and its mirror, device 4, which ReadMap's seed (offset/unit = 1)
		// makes the copy a read tries first.  Neither node hosts the MDS.
		first, mirror = 4, 1
		sameSource    = 1 + rpc.IntegrityRetries // the first read and its bounded re-reads
	)
	want := failoverPattern(0, 2*unit)
	type calls map[string]float64
	rows := []struct {
		name    string
		arch    Arch
		rot     []int // storage nodes whose copy rots
		down    []int // storage nodes taken down
		calls   calls // exact calls of the one read, per remote service
		repairs float64
		corrupt bool // the read fails, with the checksum cause
	}{
		// NFS ladder: same-source re-reads, replica rung (one read per other
		// copy, one rewrite after a checksum cause), layout re-drive
		// (GETDEVICELIST + LAYOUTGET, one retry), MDS proxy (one READ, behind
		// which the MDS's PVFS2 client runs the PVFS2 ladder below).
		{"direct-pnfs/one-copy-rotten", ArchDirectPNFS, []int{first}, nil,
			calls{ServiceDS: sameSource + 1 + 1}, 1, false},
		{"direct-pnfs/one-copy-down", ArchDirectPNFS, nil, []int{first},
			calls{ServiceDS: 1 + 1}, 0, false},
		{"direct-pnfs/every-copy-rotten", ArchDirectPNFS, []int{first, mirror}, nil,
			calls{ServiceDS: sameSource + (copies - 1) + 1, ServiceMDS: 2 + 1, pvfs.ServiceIO: sameSource * copies}, 0, true},
		// PVFS2 ladder: the retry loop (a checksum cause gets IntegrityRetries
		// retries) around the replica rung.
		{"pvfs2/one-copy-rotten", ArchPVFS2, []int{first}, nil,
			calls{pvfs.ServiceIO: 1 + 1 + 1}, 1, false},
		{"pvfs2/one-copy-down", ArchPVFS2, nil, []int{first},
			calls{pvfs.ServiceIO: 1 + 1}, 0, false},
		{"pvfs2/every-copy-rotten", ArchPVFS2, []int{first, mirror}, nil,
			calls{pvfs.ServiceIO: sameSource * copies}, 0, true},
	}
	services := []string{ServiceMDS, ServiceDS, pvfs.ServiceMeta, pvfs.ServiceIO}
	build := func(t *testing.T, arch Arch) *Cluster {
		cl := New(Config{
			Arch: arch, Clients: 1, Backends: 6, Real: true,
			StripeSize: unit, WSize: unit, RSize: unit,
			Aggregation: pnfs.AggReplicated, AggParams: []int64{copies, unit},
			WireChecksums: true,
		})
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
			f, err := m.Create(ctx, "/f")
			if err != nil {
				return err
			}
			if err := m.Write(ctx, f, 0, payload.Real(want)); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			t.Fatalf("populate: %v", err)
		}
		return cl
	}
	rot := func(cl *Cluster, nodes []int) {
		for _, n := range nodes {
			// Each node holds one chunk of one file, so any seed rots it.
			cl.CorruptData(cl.members[n].node.Name, 1)
		}
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cl := build(t, row.arch)
			defer cl.Close()
			rot(cl, row.rot)
			for _, n := range row.down {
				cl.SetNodeDown(cl.members[n].node.Name, true)
			}
			// read cold-reads the extent once (a fresh open: an open file
			// keeps its page cache) and returns what the read itself cost.
			read := func(ctx *rpc.Ctx, m *Mount) (calls, error) {
				m.DropCaches()
				f, err := m.Open(ctx, "/f")
				if err != nil {
					return nil, err
				}
				defer m.Close(ctx, f)
				before := calls{}
				for _, s := range services {
					before[s] = callsTo(cl, s)
				}
				got, n, err := m.Read(ctx, f, unit, unit)
				if err == nil && (n != unit || !bytes.Equal(got.Bytes, want[unit:])) {
					return nil, fmt.Errorf("read delivered %d bytes that differ from what was written", n)
				}
				cost := calls{}
				for _, s := range services {
					if d := callsTo(cl, s) - before[s]; d != 0 {
						cost[s] = d
					}
				}
				return cost, err
			}
			check := func(what string, cost, wantCost calls, err error) error {
				if row.corrupt != (err != nil) || (err != nil && !errors.Is(err, store.ErrCorrupt)) {
					return fmt.Errorf("%s: err = %v, want checksum failure: %v", what, err, row.corrupt)
				}
				if fmt.Sprint(cost) != fmt.Sprint(wantCost) {
					return fmt.Errorf("%s: calls %v, want exactly %v", what, cost, wantCost)
				}
				if got := repairSum(cl); got != row.repairs {
					return fmt.Errorf("%s: %v read repairs, want %v", what, got, row.repairs)
				}
				return nil
			}
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				cost, err := read(ctx, m)
				if err := check("first read", cost, row.calls, err); err != nil {
					return err
				}
				if row.repairs == 0 {
					// Nothing was rewritten, so the ladder runs again in full.
					cost, err = read(ctx, m)
					return check("second read", cost, row.calls, err)
				}
				// The copy rots again: this client already rewrote the
				// extent, so the ladder serves the other copy and leaves the
				// rewrite to the scrubber — one call fewer, no second repair.
				rot(cl, row.rot)
				again := calls{}
				for s, n := range row.calls {
					again[s] = n - 1
				}
				cost, err = read(ctx, m)
				return check("read after the copy rotted again", cost, again, err)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}

	// A scrub pass: a node that finds its copy rotten asks each partner once.
	for _, row := range []struct {
		name            string
		rot             []int
		fetches         float64
		found, repaired float64
	}{
		{"scrub/one-copy-rotten", []int{first}, copies - 1, 1, 1},
		{"scrub/every-copy-rotten", []int{first, mirror}, copies * (copies - 1), 2, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl := build(t, ArchPVFS2)
			defer cl.Close()
			rot(cl, row.rot)
			before := callsTo(cl, pvfs.ServiceIO)
			var found, repaired float64
			for _, c := range scrubPass(t, cl) {
				found += c.found
				repaired += c.repaired
			}
			if got := callsTo(cl, pvfs.ServiceIO) - before; got != row.fetches || found != row.found || repaired != row.repaired {
				t.Fatalf("pass made %v partner reads, found %v, repaired %v; want %v, %v, %v",
					got, found, repaired, row.fetches, row.found, row.repaired)
			}
		})
	}

	// The write ladders, on an unreplicated Direct-pNFS cluster whose io1
	// stays down, so every rung runs to its bound and the error the
	// application finally sees is the PVFS2 retry loop's behind the MDS.
	// Write-back of one extent on io1: the primary WRITE, the layout
	// re-drive (GETDEVICELIST + LAYOUTGET, one retried WRITE), the MDS proxy
	// (one WRITE), and behind it the MDS's PVFS2 client, which tries io1's
	// daemon for its whole retry budget.  COMMIT after unstable writes to
	// io0 and io1: one COMMIT per touched data server, io1's falls back to
	// one COMMIT through the MDS, which flushes the file's daemons in order —
	// io0, then io1 for the whole budget.
	budget := float64(rpc.RetryAttempts)
	for _, row := range []struct {
		name      string
		unstable  bool // write io0 and io1 while up, then COMMIT with io1 down
		calls     calls
		fallbacks float64
	}{
		{"direct-pnfs/write-back-ds-down", false,
			calls{ServiceDS: 1 + 1, ServiceMDS: 2 + 1, pvfs.ServiceIO: budget}, 1},
		{"direct-pnfs/commit-ds-down", true,
			calls{ServiceDS: 2, ServiceMDS: 1, pvfs.ServiceIO: 1 + budget}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl := New(Config{
				Arch: ArchDirectPNFS, Clients: 1, Backends: 6, Real: true,
				StripeSize: unit, WSize: unit, RSize: unit,
			})
			defer cl.Close()
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Create(ctx, "/w")
				if err != nil {
					return err
				}
				if row.unstable {
					// Two WSize runs go out UNSTABLE through write-back.
					if err := m.Write(ctx, f, 0, payload.Real(want)); err != nil {
						return err
					}
					ctx.Sleep(100 * time.Millisecond) // let write-back land
				}
				cl.SetNodeDown("io1", true)
				before := calls{}
				for _, s := range services {
					before[s] = callsTo(cl, s)
				}
				if !row.unstable {
					// The file's second stripe unit lives on io1.
					if err := m.Write(ctx, f, unit, payload.Real(want[unit:])); err != nil {
						return err
					}
				}
				if err := m.Fsync(ctx, f); err == nil {
					return fmt.Errorf("fsync succeeded with io1 down for good")
				}
				cost := calls{}
				for _, s := range services {
					if d := callsTo(cl, s) - before[s]; d != 0 {
						cost[s] = d
					}
				}
				if fmt.Sprint(cost) != fmt.Sprint(row.calls) {
					return fmt.Errorf("calls %v, want exactly %v", cost, row.calls)
				}
				if got := counterSum(cl, "nfs_client_mds_fallbacks_total"); got != row.fallbacks {
					return fmt.Errorf("%v MDS fallbacks, want %v", got, row.fallbacks)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
