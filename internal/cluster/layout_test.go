package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dpnfs/internal/faults"
	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
)

// layoutOverWire sends PUTFH and LAYOUTGET for fh from the mount's node to
// the metadata server and returns the layout of the reply.
func layoutOverWire(ctx *rpc.Ctx, cl *Cluster, m *Mount, fh uint64) (pnfs.FileLayout, error) {
	conn := cl.dial(m.node.Name, cl.mdsNode.Name, ServiceMDS)
	var rep nfs.CompoundRep
	args := &nfs.CompoundArgs{Ops: []nfs.Op{&nfs.OpPutFH{FH: fh}, &nfs.OpLayoutGet{}}}
	if err := conn.Call(ctx, nfs.ProcCompound, args, &rep); err != nil {
		return pnfs.FileLayout{}, err
	}
	if err := rep.Status.Err(); err != nil {
		return pnfs.FileLayout{}, err
	}
	return rep.Results[1].(*nfs.ResLayoutGet).Layout, nil
}

// layoutPattern is the byte at off of the file the layout pins write.
func layoutPattern(off int) byte { return byte(off*11 + off/4099) }

// writeLayoutFile has client 0 create /f with size pattern bytes, sync and
// close it, and returns the file's handle.
func writeLayoutFile(t *testing.T, cl *Cluster, size int) uint64 {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = layoutPattern(i)
	}
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		f, err := m.Create(ctx, "/f")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Real(data)); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	at, err := cl.PVFSMeta.Namespace().LookupPath("/f")
	if err != nil {
		t.Fatal(err)
	}
	return uint64(at.ID)
}

// checkLayout fetches fh's layout over the wire on client 0 and compares
// every field with want, whose FHs are all fh.
func checkLayout(t *testing.T, cl *Cluster, fh uint64, want pnfs.FileLayout) {
	t.Helper()
	var got pnfs.FileLayout
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) (err error) {
		got, err = layoutOverWire(ctx, cl, m, fh)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want.FHs = make([]uint64, len(want.Devices))
	for i := range want.FHs {
		want.FHs[i] = fh
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LAYOUTGET replied\n%+v\nwant\n%+v", got, want)
	}
}

// TestReplicatedGeometryRefusedAtBuild: a replicated aggregation whose copy
// count does not divide the storage nodes fails the build on every
// architecture, rather than running unreplicated without a word; one more
// back end (two on 3-tier, which halves them into storage nodes) makes the
// geometry valid, and the substrate then stores both copies.
func TestReplicatedGeometryRefusedAtBuild(t *testing.T) {
	for _, c := range []struct {
		arch         Arch
		backends, ok int
	}{
		{ArchDirectPNFS, 5, 6},
		{ArchPVFS2, 5, 6},
		{ArchPNFS2Tier, 5, 6},
		{ArchPNFS3Tier, 6, 8},
		{ArchNFSv4, 5, 6},
	} {
		t.Run(string(c.arch), func(t *testing.T) {
			build := func(backends int) (cl *Cluster, refusal any) {
				defer func() { refusal = recover() }()
				return New(Config{Arch: c.arch, Backends: backends,
					Aggregation: pnfs.AggReplicated, AggParams: []int64{2, 64 << 10}}), nil
			}
			cl, refusal := build(c.backends)
			if cl != nil {
				defer cl.Close()
				t.Fatalf("%d back ends built, with %d substrate copies", c.backends, cl.PVFSMeta.Dist().Copies)
			}
			if msg := fmt.Sprint(refusal); !strings.Contains(msg, "not divisible into 2 replicas") {
				t.Fatalf("%d back ends refused with %q, want the replica geometry named", c.backends, msg)
			}
			cl, refusal = build(c.ok)
			if refusal != nil {
				t.Fatalf("%d back ends refused: %v", c.ok, refusal)
			}
			defer cl.Close()
			if got := cl.PVFSMeta.Dist().Copies; got != 2 {
				t.Fatalf("%d back ends store %d substrate copies, want 2", c.ok, got)
			}
		})
	}
}

// TestDirectLayoutGetPinned pins the Direct-pNFS LAYOUTGET reply for the
// standard scheme and each pluggable driver: every storage node's data
// server in build order, each addressed by the file's own handle, the
// driver's params (round-robin: the placement's stripe), direct offsets,
// generation 0.  Hierarchical and variable-stripe files written by one
// client read back byte for byte on another.
func TestDirectLayoutGetPinned(t *testing.T) {
	const size = 9<<20 + 12345 // past one round of every geometry below
	all := []pnfs.DeviceID{0, 1, 2, 3, 4, 5}
	for _, c := range []struct {
		agg      string
		params   []int64
		want     pnfs.FileLayout
		readBack bool
	}{
		{"", nil, pnfs.FileLayout{Aggregation: pnfs.AggRoundRobin, Params: []int64{2 << 20}}, false},
		{pnfs.AggReplicated, []int64{2, 64 << 10}, pnfs.FileLayout{Aggregation: pnfs.AggReplicated, Params: []int64{2, 64 << 10}}, false},
		{pnfs.AggHierarchical, []int64{1 << 20, 256 << 10, 2},
			pnfs.FileLayout{Aggregation: pnfs.AggHierarchical, Params: []int64{1 << 20, 256 << 10, 2}}, true},
		{pnfs.AggVariableStripe, []int64{4 << 20, 2 << 20, 2 << 20, 1 << 20, 1 << 20, 512 << 10},
			pnfs.FileLayout{Aggregation: pnfs.AggVariableStripe, Params: []int64{4 << 20, 2 << 20, 2 << 20, 1 << 20, 1 << 20, 512 << 10}}, true},
	} {
		name := c.agg
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			cl := New(Config{Arch: ArchDirectPNFS, Clients: 2, Real: true, Aggregation: c.agg, AggParams: c.params})
			defer cl.Close()
			fh := writeLayoutFile(t, cl, size)
			want := c.want
			want.Devices, want.Direct = all, true
			checkLayout(t, cl, fh, want)
			if !c.readBack {
				return
			}
			if _, err := cl.RunClient(1, func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Open(ctx, "/f")
				if err != nil {
					return err
				}
				got, n, err := m.Read(ctx, f, 0, size)
				if err != nil {
					return err
				}
				defer got.Release()
				for i := range got.Bytes {
					if got.Bytes[i] != layoutPattern(i) {
						return fmt.Errorf("byte %d of %d read back %#x, want %#x", i, n, got.Bytes[i], layoutPattern(i))
					}
				}
				if n != size || len(got.Bytes) != size {
					return fmt.Errorf("read back %d bytes (%d real), want %d", n, len(got.Bytes), size)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectLayoutGetAfterDrain pins the round-robin layout after io1 is
// drained: the survivors keep their device IDs, and every device addresses
// the shadow objects the migration copied the file into — a geometry other
// than the pre-drain layout's, which is what sends a client holding that
// one to remap.  The migrated bytes read back through the new layout.
func TestDirectLayoutGetAfterDrain(t *testing.T) {
	const size = 5<<20 + 777
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 2, Real: true})
	defer cl.Close()
	fh := writeLayoutFile(t, cl, size)
	var before pnfs.FileLayout
	if _, err := cl.RunClient(1, func(ctx *rpc.Ctx, m *Mount, _ int) (err error) {
		before, err = layoutOverWire(ctx, cl, m, fh)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	schedule(t, cl, faults.Drain{Node: "io1"})
	if err := cl.Reconcile(); err != nil {
		t.Fatal(err)
	}
	place, err := cl.PVFSMeta.PlacementOf(pvfs.Handle(fh))
	if err != nil {
		t.Fatal(err)
	}
	shadow := uint64(place.Data)
	if shadow != 1<<48 {
		t.Fatalf("the drained file's objects live under %#x, want the first shadow handle %#x", shadow, uint64(1<<48))
	}
	want := pnfs.FileLayout{
		Aggregation: pnfs.AggRoundRobin, Params: []int64{2 << 20},
		Devices: []pnfs.DeviceID{0, 2, 3, 4, 5}, Direct: true,
	}
	var got pnfs.FileLayout
	if _, err := cl.RunClient(1, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		var err error
		if got, err = layoutOverWire(ctx, cl, m, fh); err != nil {
			return err
		}
		f, err := m.Open(ctx, "/f")
		if err != nil {
			return err
		}
		data, n, err := m.Read(ctx, f, 0, size)
		if err != nil {
			return err
		}
		defer data.Release()
		wantBytes := make([]byte, size)
		for i := range wantBytes {
			wantBytes[i] = layoutPattern(i)
		}
		if n != size || !bytes.Equal(data.Bytes, wantBytes) {
			return fmt.Errorf("read back %d bytes after the drain, not the %d written", n, size)
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	want.FHs = []uint64{shadow, shadow, shadow, shadow, shadow}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LAYOUTGET after the drain replied\n%+v\nwant\n%+v", got, want)
	}
	if got.SameGeometry(&before) {
		t.Fatalf("the layout after the drain has the pre-drain geometry %+v", before)
	}
}

// TestBlindLayoutsAfterJoin pins what the 2-tier and 3-tier metadata
// servers answer once io9 has joined: the 2-tier GETDEVICELIST follows the
// member table, so it gains io9's data server (device 6); the 3-tier one
// still names only its ds* tier; and both LAYOUTGETs stripe over the list
// rotated by one.  So the 2-tier layout's geometry moved from the pre-join
// one's and the 3-tier one's did not: its data servers find the file's
// placement themselves.
func TestBlindLayoutsAfterJoin(t *testing.T) {
	for _, c := range []struct {
		arch    Arch
		mds     string // the node clients mount
		devices []pnfs.DeviceInfo
	}{
		{ArchPNFS2Tier, "io0", []pnfs.DeviceInfo{{ID: 0, Addr: "io0"}, {ID: 1, Addr: "io1"}, {ID: 2, Addr: "io2"},
			{ID: 3, Addr: "io3"}, {ID: 4, Addr: "io4"}, {ID: 5, Addr: "io5"}, {ID: 6, Addr: "io9"}}},
		{ArchPNFS3Tier, "ds0", []pnfs.DeviceInfo{{ID: 3, Addr: "ds0"}, {ID: 4, Addr: "ds1"}, {ID: 5, Addr: "ds2"}}},
	} {
		t.Run(string(c.arch), func(t *testing.T) {
			cl := New(Config{Arch: c.arch, Clients: 1, Real: true})
			defer cl.Close()
			fh := writeLayoutFile(t, cl, 1<<20)
			var rep nfs.CompoundRep
			ask := func() {
				t.Helper()
				if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
					conn := cl.dial(m.node.Name, c.mds, ServiceMDS)
					args := &nfs.CompoundArgs{Ops: []nfs.Op{&nfs.OpPutRootFH{}, &nfs.OpGetDevList{}, &nfs.OpPutFH{FH: fh}, &nfs.OpLayoutGet{}}}
					if err := conn.Call(ctx, nfs.ProcCompound, args, &rep); err != nil {
						return err
					}
					return rep.Status.Err()
				}); err != nil {
					t.Fatal(err)
				}
			}
			ask()
			before := rep.Results[3].(*nfs.ResLayoutGet).Layout
			schedule(t, cl, faults.Join{Node: "io9"})
			if err := cl.Reconcile(); err != nil {
				t.Fatal(err)
			}
			ask()
			if got := rep.Results[1].(*nfs.ResGetDevList).Devices; !reflect.DeepEqual(got, c.devices) {
				t.Errorf("GETDEVICELIST after the join replied %+v, want %+v", got, c.devices)
			}
			want := pnfs.FileLayout{Aggregation: pnfs.AggRoundRobin, Params: []int64{cl.Cfg.WSize}}
			for i := range c.devices {
				want.Devices = append(want.Devices, c.devices[(i+1)%len(c.devices)].ID)
				want.FHs = append(want.FHs, fh)
			}
			got := rep.Results[3].(*nfs.ResLayoutGet).Layout
			if !reflect.DeepEqual(got, want) {
				t.Errorf("LAYOUTGET after the join replied\n%+v\nwant\n%+v", got, want)
			}
			if moved := !got.SameGeometry(&before); moved != (c.arch == ArchPNFS2Tier) {
				t.Errorf("the layout's geometry moved over the join: %v, want %v", moved, c.arch == ArchPNFS2Tier)
			}
		})
	}
}
