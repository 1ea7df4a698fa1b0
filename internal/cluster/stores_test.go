package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
)

// BackendFactory builds a store for each shipped kind, and refuses any other
// kind with an error that names the ones it accepts.
func TestBackendFactory(t *testing.T) {
	for _, tc := range []struct {
		kind string
		ok   bool
	}{
		{"", true},
		{BackendMem, true},
		{BackendWAL, true},
		{"cached", false}, // a retired backend
		{"tape", false},
	} {
		t.Run("kind="+tc.kind, func(t *testing.T) {
			f, err := BackendFactory(tc.kind)
			if !tc.ok {
				if err == nil {
					t.Fatalf("BackendFactory(%q) accepted an unknown kind", tc.kind)
				}
				for _, want := range []string{BackendMem, BackendWAL} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			s := f("io0", nil, nil)
			if s == nil {
				t.Fatal("factory built no store")
			}
			if _, err := s.Create(s.Root(), "f"); err != nil {
				t.Fatalf("store from %q: %v", tc.kind, err)
			}
		})
	}
}

// distinctPattern returns n seeded pseudo-random bytes: unlike
// failoverPattern, whose bytes repeat every 64 KB, no two store chunks of it
// hold the same bytes, so a block served from the wrong place shows.
func distinctPattern(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// writeDistinct creates path, writes distinctPattern(seed, size) to it,
// fsyncs and closes it.
func writeDistinct(ctx *rpc.Ctx, m *Mount, path string, seed int64, size int) error {
	f, err := m.Create(ctx, path)
	if err != nil {
		return err
	}
	if err := m.Write(ctx, f, 0, payload.Real(distinctPattern(seed, size))); err != nil {
		return err
	}
	if err := m.Fsync(ctx, f); err != nil {
		return err
	}
	return m.Close(ctx, f)
}

// readDistinct cold-reads path in steps and returns the offsets of the steps
// whose bytes differ from distinctPattern(seed, size).
func readDistinct(ctx *rpc.Ctx, m *Mount, path string, seed int64, size, step int) ([]int, error) {
	f, err := m.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	want := distinctPattern(seed, size)
	var bad []int
	for off := 0; off < size; off += step {
		got, n, err := m.Read(ctx, f, int64(off), int64(step))
		if err != nil {
			return nil, fmt.Errorf("%s: read at %d: %w", path, off, err)
		}
		if n != int64(step) || !bytes.Equal(got.Bytes, want[off:off+step]) {
			bad = append(bad, off)
		}
	}
	return bad, m.Close(ctx, f)
}

// TestMisdirectedReadReReadsSameSource drives faults.MisdirectedRead on a
// real-bytes Direct-pNFS cluster with no replicas: io1's next read of a
// victim file is served another block's bytes.  The location-salted block
// sums catch it, the client counts a corrupt read, and its same-source
// re-read (the fault is one-shot) returns the right bytes, so no replica
// is needed and none is asked.
func TestMisdirectedReadReReadsSameSource(t *testing.T) {
	const (
		fileSize = 512 << 10
		step     = 64 << 10
	)
	cl := New(Config{
		Arch: ArchDirectPNFS, Clients: 2, Real: true,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
	})
	defer cl.Close()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		return writeDistinct(ctx, m, fmt.Sprintf("/mis.%d", i), int64(i), fileSize)
	}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	schedule(t, cl, faults.MisdirectedRead{At: time.Millisecond, Node: "io1", Seed: 7})
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		ctx.P.Sleep(10 * time.Millisecond) // let the fault land first
		m.DropCaches()
		bad, err := readDistinct(ctx, m, fmt.Sprintf("/mis.%d", i), int64(i), fileSize, step)
		if err == nil && len(bad) > 0 {
			err = fmt.Errorf("client %d: wrong bytes delivered at offsets %v", i, bad)
		}
		return err
	}); err != nil {
		t.Fatalf("read back: %v", err)
	}

	if got := counterSum(cl, "faults_injected_total"); got != 1 {
		t.Fatalf("faults_injected_total = %v, want 1", got)
	}
	if got := counterSum(cl, "faults_skipped_total"); got != 0 {
		t.Fatalf("faults_skipped_total = %v: no file to misdirect on io1", got)
	}
	if got := counterSum(cl, "nfs_client_corrupt_reads_total"); got < 1 {
		t.Fatalf("nfs_client_corrupt_reads_total = %v, want >= 1: the misdirected read was never served", got)
	}
	if got := repairSum(cl) + counterSum(cl, "nfs_client_mds_fallbacks_total"); got != 0 {
		t.Fatalf("%v repairs and MDS fallbacks, want 0: the same-source re-read should have healed it", got)
	}
}

// TestTornWriteLosesOnlyTheTornRecord drives faults.TornWrite with a
// StorageNodeCrash on the wal backend: io1's crash persists only half of
// the last record of its last journal flush.  Recovery detects the tear by
// the record checksum and drops that record.  Every file fsynced before that
// flush reads back intact from the replayed journal; of the files the last
// flush made durable, exactly the one 64 KB block the torn record held is
// lost.  (The model tears an acknowledged flush: see docs/FAULTS.md.)
func TestTornWriteLosesOnlyTheTornRecord(t *testing.T) {
	const (
		fileSize = 256 << 10
		step     = 64 << 10
		crashAt  = 100 * time.Millisecond
	)
	cl := New(Config{
		Arch: ArchDirectPNFS, Clients: 2, Real: true,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
		Backend: BackendWAL,
	})
	defer cl.Close()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		return writeDistinct(ctx, m, fmt.Sprintf("/kept.%d", i), int64(i), fileSize)
	}); err != nil {
		t.Fatalf("populate: %v", err)
	}
	schedule(t, cl,
		faults.TornWrite{At: time.Millisecond, Node: "io1"},
		faults.StorageNodeCrash{At: crashAt, Node: "io1"},
		faults.StorageNodeRestart{At: 2 * crashAt, Node: "io1"},
	)
	// The last flush: one more file per client, fsynced before the crash.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		if err := writeDistinct(ctx, m, fmt.Sprintf("/last.%d", i), int64(10+i), fileSize); err != nil {
			return err
		}
		if now := ctx.P.Now(); now >= sim.Time(crashAt) {
			return fmt.Errorf("client %d: the last flush ended at %v, after the crash", i, time.Duration(now))
		}
		return nil
	}); err != nil {
		t.Fatalf("last flush: %v", err)
	}
	lost := make([][]int, 2)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		m.DropCaches()
		bad, err := readDistinct(ctx, m, fmt.Sprintf("/kept.%d", i), int64(i), fileSize, step)
		if err == nil && len(bad) > 0 {
			err = fmt.Errorf("/kept.%d: bytes at offsets %v differ after recovery", i, bad)
		}
		if err != nil {
			return err
		}
		lost[i], err = readDistinct(ctx, m, fmt.Sprintf("/last.%d", i), int64(10+i), fileSize, step)
		return err
	}); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if n := len(lost[0]) + len(lost[1]); n != 1 {
		t.Fatalf("the last flush lost blocks %v of /last.0 and %v of /last.1, want exactly the torn one", lost[0], lost[1])
	}
	if got := counterSum(cl, "faults_injected_total"); got != 3 {
		t.Fatalf("faults_injected_total = %v, want the torn write, crash and restart", got)
	}
	if got := counterSum(cl, "store_wal_torn_writes_total"); got != 1 {
		t.Fatalf("store_wal_torn_writes_total = %v, want 1: the tear was not detected", got)
	}
}

// TestCrashedDaemonAnswersDown: a storage daemon whose wal store crashed
// (Cluster.CrashVolatile) answers every IO procedure on a file's objects
// with rpc.StatusDown, the retryable answer of a down node, never with a
// stale handle or a missing object, which a caller would take as final.
// After RestartVolatile the object has the size the file's fsync made
// durable.
func TestCrashedDaemonAnswersDown(t *testing.T) {
	const size = 256 << 10
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, StripeSize: 64 << 10, Backend: BackendWAL})
	defer cl.Close()
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
		return writeDistinct(ctx, m, "/f", 1, size)
	}); err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/f")
	if err != nil {
		t.Fatal(err)
	}
	place, err := cl.PVFSMeta.PlacementOf(pvfsHandle(at.ID))
	if err != nil {
		t.Fatal(err)
	}
	h := place.Data
	daemon := cl.memberNamed("io1").storage
	synced := daemon.ObjectSize(h)
	if synced == 0 {
		t.Fatal("io1 holds none of /f's bytes: the crash would test nothing")
	}
	cl.CrashVolatile("io1")
	for proc, req := range map[uint32]any{
		pvfs.ProcIOCreate:   &pvfs.IOCreateArgs{Handle: h},
		pvfs.ProcIORemove:   &pvfs.IORemoveArgs{Handle: h},
		pvfs.ProcIOGetSize:  &pvfs.IOGetSizeArgs{Handle: h},
		pvfs.ProcIOTruncate: &pvfs.IOTruncateArgs{Handle: h},
		pvfs.ProcIORead:     &pvfs.IOReadArgs{Handle: h, Len: 4096, WantReal: true},
		pvfs.ProcIOWrite:    &pvfs.IOWriteArgs{Handle: h, Data: payload.Real(make([]byte, 4096)), Sync: true},
		pvfs.ProcIOFlush:    &pvfs.IOFlushArgs{Handle: h},
	} {
		if rep, status := daemon.Handle(&rpc.Ctx{}, proc, req); status != rpc.StatusDown {
			t.Errorf("%s on crashed io1 answered %v %+v, want rpc.StatusDown", pvfs.ProcName(proc), status, rep)
		}
	}
	cl.RestartVolatile("io1")
	rep, status := daemon.Handle(&rpc.Ctx{}, pvfs.ProcIOGetSize, &pvfs.IOGetSizeArgs{Handle: h})
	if got, ok := rep.(*pvfs.IOGetSizeRep); status != rpc.StatusOK || !ok || got.Errno != fserr.OK || got.Size != synced {
		t.Fatalf("IO-GETSIZE after the restart answered %v %+v, want size %d", status, rep, synced)
	}
}
