package nfs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

// testMount wires one NFS server (StoreBackend over a fresh in-memory
// store) and one client mount.
type testMount struct {
	k      *sim.Kernel
	client *Client
	server *Server
	back   *StoreBackend
}

func newTestMount(t *testing.T, real bool) *testMount {
	t.Helper()
	return newTestMountFull(t, real, nil)
}

// newTestMountWithRegistry wires the mount's client into a shared metrics
// registry (metrics_test.go).
func newTestMountWithRegistry(t *testing.T, reg *metrics.Registry) *testMount {
	t.Helper()
	return newTestMountFull(t, false, reg)
}

func newTestMountFull(t *testing.T, real bool, reg *metrics.Registry) *testMount {
	t.Helper()
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	srvNode := f.AddNode(simnet.NodeConfig{Name: "server"})
	clNode := f.AddNode(simnet.NodeConfig{Name: "client"})
	back := NewStoreBackend(mem.New(), nil)
	server := NewServer(ServerConfig{
		Transport: &rpc.FabricTransport{Fabric: f}, Node: srvNode,
		Backend: back,
	})
	client := NewClient(ClientConfig{
		Node:         clNode,
		MDS:          &rpc.SimTransport{Fabric: f, Src: clNode, Dst: srvNode, Service: Service},
		Real:         real,
		MaxReadAhead: 4 << 20,
		Metrics:      reg,
	})
	return &testMount{k: k, client: client, server: server, back: back}
}

func (m *testMount) run(t *testing.T, fn func(ctx *rpc.Ctx)) {
	t.Helper()
	m.k.Go("app", func(p *sim.Proc) {
		ctx := &rpc.Ctx{P: p}
		if err := m.client.Mount(ctx); err != nil {
			t.Fatal(err)
		}
		fn(ctx)
	})
	if err := m.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMountEstablishesSession(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		if m.client.session == 0 || m.client.clientID == 0 {
			t.Error("mount did not establish a session")
		}
		if m.client.PNFS() {
			t.Error("VFS backend must not offer pNFS")
		}
	})
}

func TestCreateWriteReadBack(t *testing.T) {
	m := newTestMount(t, true)
	data := []byte("direct pnfs reproduces the paper")
	m.run(t, func(ctx *rpc.Ctx) {
		f, err := m.client.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.client.Write(ctx, f, 0, payload.Real(data)); err != nil {
			t.Fatal(err)
		}
		// Read-your-writes from the cache, before any flush.
		got, n, err := m.client.Read(ctx, f, 0, int64(len(data)))
		if err != nil || n != int64(len(data)) || !bytes.Equal(got.Bytes, data) {
			t.Fatalf("cache read: %q %d %v", got.Bytes, n, err)
		}
		if err := m.client.Close(ctx, f); err != nil {
			t.Fatal(err)
		}
		// Verify the server actually holds the bytes.
		at, err := m.back.Store.LookupPath("/f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(data))
		m.back.Store.ReadAt(at.ID, 0, buf)
		if !bytes.Equal(buf, data) {
			t.Fatalf("server holds %q, want %q", buf, data)
		}
	})
}

func TestReadFromColdCache(t *testing.T) {
	m := newTestMount(t, true)
	m.run(t, func(ctx *rpc.Ctx) {
		// Seed server-side directly.
		at, _ := m.back.Store.Create(m.back.Store.Root(), "seeded")
		content := bytes.Repeat([]byte("xyz"), 1000)
		m.back.Store.WriteAt(at.ID, 0, content)

		f, err := m.client.Open(ctx, "/seeded")
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != int64(len(content)) {
			t.Fatalf("open size %d, want %d", f.Size(), len(content))
		}
		got, n, err := m.client.Read(ctx, f, 100, 500)
		if err != nil || n != 500 {
			t.Fatalf("read: %d %v", n, err)
		}
		if !bytes.Equal(got.Bytes, content[100:600]) {
			t.Fatal("cold read returned wrong bytes")
		}
	})
}

func TestWriteGatheringReducesRPCs(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		f, err := m.client.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		before := m.client.RPCs
		// 512 sequential 8 KiB writes = 4 MiB = exactly 2 gathered WRITEs.
		for i := 0; i < 512; i++ {
			if err := m.client.Write(ctx, f, int64(i)*8<<10, payload.Synthetic(8<<10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.client.Fsync(ctx, f); err != nil {
			t.Fatal(err)
		}
		rpcs := m.client.RPCs - before
		// 2 WRITEs + 1 COMMIT; allow a little slack but far below 512.
		if rpcs > 8 {
			t.Fatalf("512 small writes produced %d RPCs; write gathering broken", rpcs)
		}
	})
}

func TestSequentialReadahead(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		at, _ := m.back.Store.Create(m.back.Store.Root(), "big")
		m.back.Store.WriteSyntheticAt(at.ID, 0, 32<<20)

		f, err := m.client.Open(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		// Sequential 8 KiB reads over 16 MB.
		for off := int64(0); off < 16<<20; off += 8 << 10 {
			if _, n, err := m.client.Read(ctx, f, off, 8<<10); err != nil || n != 8<<10 {
				t.Fatalf("read at %d: %d %v", off, n, err)
			}
		}
		// 16 MB at 2 MB rsize = 8 fetches; readahead may add a few more for
		// the window beyond 16 MB.  Mount(2) + open(1) + ~12 reads max.
		if m.client.RPCs > 30 {
			t.Fatalf("sequential small reads made %d RPCs; readahead/rsize rounding broken", m.client.RPCs)
		}
	})
}

func TestFsyncCommitsToBackend(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		f, _ := m.client.Create(ctx, "/f")
		m.client.Write(ctx, f, 0, payload.Synthetic(100))
		// Not yet visible server-side (write-back).
		at, _ := m.back.Store.LookupPath("/f")
		if a, _ := m.back.Store.GetAttr(at.ID); a.Size != 0 {
			t.Fatalf("write reached server before fsync (size %d)", a.Size)
		}
		if err := m.client.Fsync(ctx, f); err != nil {
			t.Fatal(err)
		}
		if a, _ := m.back.Store.GetAttr(at.ID); a.Size != 100 {
			t.Fatalf("fsync did not flush (size %d)", a.Size)
		}
	})
}

func TestNamespaceOps(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		if err := m.client.Mkdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.client.Create(ctx, "/d/a"); err != nil {
			t.Fatal(err)
		}
		if err := m.client.Rename(ctx, "/d", "a", "b"); err != nil {
			t.Fatal(err)
		}
		names, err := m.client.ReadDir(ctx, "/d")
		if err != nil || len(names) != 1 || names[0] != "b" {
			t.Fatalf("readdir after rename: %v %v", names, err)
		}
		if err := m.client.Remove(ctx, "/d/b"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.client.Open(ctx, "/d/b"); err != store.ErrNotExist {
			t.Fatalf("open removed file: %v", err)
		}
	})
}

func TestTruncateDropsCache(t *testing.T) {
	m := newTestMount(t, true)
	m.run(t, func(ctx *rpc.Ctx) {
		f, _ := m.client.Create(ctx, "/f")
		m.client.Write(ctx, f, 0, payload.Real(bytes.Repeat([]byte{7}, 1000)))
		m.client.Fsync(ctx, f)
		if err := m.client.Truncate(ctx, f, 10); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 10 {
			t.Fatalf("size after truncate %d", f.Size())
		}
		got, n, err := m.client.Read(ctx, f, 0, 100)
		if err != nil || n != 10 {
			t.Fatalf("read after truncate: %d %v", n, err)
		}
		for _, b := range got.Bytes {
			if b != 7 {
				t.Fatal("kept bytes corrupted")
			}
		}
	})
}

func TestOpenMissingFails(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		if _, err := m.client.Open(ctx, "/nope"); err != store.ErrNotExist {
			t.Fatalf("open missing: %v", err)
		}
	})
}

func TestSessionReplayCache(t *testing.T) {
	// A retransmitted (same slot+seq) compound must return the cached reply
	// without re-executing.
	back := NewStoreBackend(mem.New(), nil)
	srv := NewServer(ServerConfig{Backend: back})
	ctx := &rpc.Ctx{}

	// Handshake.
	rep, _ := srv.Handle(ctx, ProcCompound, &CompoundArgs{Ops: []Op{
		&OpExchangeID{ClientName: "c"}, &OpCreateSession{Slots: 4},
	}})
	sess := rep.(*CompoundRep).Results[1].(*ResCreateSession).Session

	mk := &CompoundArgs{Session: sess, Slot: 0, Seq: 1, Ops: []Op{
		&OpPutRootFH{}, &OpCreate{Name: "d"},
	}}
	r1, _ := srv.Handle(ctx, ProcCompound, mk)
	if r1.(*CompoundRep).Status != 0 {
		t.Fatalf("first create failed: %v", r1.(*CompoundRep).Status)
	}
	// Retransmit: same reply object, no EXIST error.
	r2, _ := srv.Handle(ctx, ProcCompound, mk)
	if r2.(*CompoundRep) != r1.(*CompoundRep) {
		t.Fatal("replay did not come from the cache")
	}
	// New seq actually re-executes (and now fails with EXIST).
	mk2 := &CompoundArgs{Session: sess, Slot: 0, Seq: 2, Ops: []Op{
		&OpPutRootFH{}, &OpCreate{Name: "d"},
	}}
	r3, _ := srv.Handle(ctx, ProcCompound, mk2)
	if r3.(*CompoundRep).Status != fserr.Exist {
		t.Fatalf("re-execute: %v, want Exist", r3.(*CompoundRep).Status)
	}
	// Out-of-order seq is rejected.
	bad := &CompoundArgs{Session: sess, Slot: 0, Seq: 9, Ops: []Op{&OpPutRootFH{}}}
	r4, _ := srv.Handle(ctx, ProcCompound, bad)
	if r4.(*CompoundRep).Status != fserr.Inval {
		t.Fatalf("bad seq: %v", r4.(*CompoundRep).Status)
	}
	// Unknown session is stale.
	r5, _ := srv.Handle(ctx, ProcCompound, &CompoundArgs{Session: 999, Ops: []Op{&OpPutRootFH{}}})
	if r5.(*CompoundRep).Status != fserr.Stale {
		t.Fatalf("unknown session: %v", r5.(*CompoundRep).Status)
	}
}

func TestCompoundStopsAtFirstFailure(t *testing.T) {
	back := NewStoreBackend(mem.New(), nil)
	srv := NewServer(ServerConfig{Backend: back})
	ctx := &rpc.Ctx{}
	rep, _ := srv.Handle(ctx, ProcCompound, &CompoundArgs{Ops: []Op{
		&OpPutRootFH{},
		&OpLookup{Name: "missing"},
		&OpGetAttr{}, // must not execute
	}})
	cr := rep.(*CompoundRep)
	if cr.Status != fserr.NoEnt {
		t.Fatalf("status %v", cr.Status)
	}
	if len(cr.Results) != 2 {
		t.Fatalf("executed %d ops, want 2 (stop at failure)", len(cr.Results))
	}
}

func TestCompoundXDRRoundTrip(t *testing.T) {
	in := &CompoundArgs{
		Tag: "t", Session: 7, Slot: 3, Seq: 9,
		Ops: []Op{
			&OpPutRootFH{},
			&OpLookup{Name: "dir"},
			&OpOpen{Name: "f", Create: true},
			&OpWrite{StateID: 5, Off: 100, Data: payload.Real([]byte("hello")), Stable: true},
			&OpRead{StateID: 5, Off: 0, Len: 4096, WantReal: true},
			&OpLayoutCommit{NewSize: 1 << 30},
		},
	}
	var out CompoundArgs
	if err := xdr.Unmarshal(xdr.Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Tag != in.Tag || out.Session != in.Session || len(out.Ops) != len(in.Ops) {
		t.Fatalf("header mangled: %+v", out)
	}
	w := out.Ops[3].(*OpWrite)
	if w.Off != 100 || !w.Stable || string(w.Data.Bytes) != "hello" {
		t.Fatalf("write op mangled: %+v", w)
	}
	// WireSize must agree with the real encoding.
	if got, want := in.WireSize(), int64(len(xdr.Marshal(in))); got != want {
		t.Fatalf("WireSize %d != encoded %d", got, want)
	}
}

func TestCompoundRepXDRRoundTrip(t *testing.T) {
	in := &CompoundRep{
		Status: fserr.NoEnt,
		Results: []Result{
			&ResPutRootFH{},
			&ResOpen{fhAttr: fhAttr{FH: 3, Attr: Attr{Size: 10}}, StateID: 8},
			&ResRead{Eof: true, Data: payload.Real([]byte("abc"))},
			&ResGetDevList{Devices: []pnfs.DeviceInfo{{ID: 1, Addr: "io0"}}},
		},
	}
	var out CompoundRep
	if err := xdr.Unmarshal(xdr.Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != in.Status || len(out.Results) != 4 {
		t.Fatalf("rep mangled: %+v", out)
	}
	if r := out.Results[2].(*ResRead); !r.Eof || string(r.Data.Bytes) != "abc" {
		t.Fatalf("read result mangled: %+v", r)
	}
	if got, want := in.WireSize(), int64(len(xdr.Marshal(in))); got != want {
		t.Fatalf("WireSize %d != encoded %d", got, want)
	}
}

// Property: random op sequences survive the XDR round trip with op numbers
// and field order intact.
func TestPropertyOpsRoundTrip(t *testing.T) {
	f := func(name string, off int64, n uint16, stable, create bool) bool {
		in := &CompoundArgs{Ops: []Op{
			&OpLookup{Name: name},
			&OpOpen{Name: name, Create: create},
			&OpWrite{Off: off, Data: payload.Real(make([]byte, int(n)%512)), Stable: stable},
			&OpCommit{Off: off, Len: int64(n)},
			&OpSetAttr{Size: off},
		}}
		var out CompoundArgs
		if err := xdr.Unmarshal(xdr.Marshal(in), &out); err != nil {
			return false
		}
		for i := range in.Ops {
			if in.Ops[i].Num() != out.Ops[i].Num() {
				return false
			}
		}
		return out.Ops[0].(*OpLookup).Name == name &&
			out.Ops[1].(*OpOpen).Create == create &&
			out.Ops[2].(*OpWrite).Stable == stable &&
			out.Ops[3].(*OpCommit).Len == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWritesMatchLargeWriteThroughput(t *testing.T) {
	// The headline NFS property (Fig 6d/6e): small application blocks do
	// not slow the NFS data path because the client gathers to wsize.
	elapsed := func(block int64) time.Duration {
		m := newTestMount(t, false)
		var took sim.Time
		m.run(t, func(ctx *rpc.Ctx) {
			f, _ := m.client.Create(ctx, "/f")
			const total = 64 << 20
			for off := int64(0); off < total; off += block {
				m.client.Write(ctx, f, off, payload.Synthetic(block))
			}
			m.client.Fsync(ctx, f)
			took = ctx.Now()
		})
		return time.Duration(took)
	}
	small := elapsed(8 << 10)
	large := elapsed(2 << 20)
	ratio := float64(small) / float64(large)
	if ratio > 1.6 {
		t.Fatalf("8 KiB writes %.2fx slower than 2 MiB writes; gathering not effective (small=%v large=%v)",
			ratio, small, large)
	}
}
