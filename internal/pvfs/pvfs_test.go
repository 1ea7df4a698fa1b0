package pvfs

import (
	"bytes"
	"testing"
	"time"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
)

// testFS wires one MDS, nDev storage daemons, and one client node onto a
// fabric.
type testFS struct {
	k       *sim.Kernel
	fabric  *simnet.Fabric
	client  *Client
	meta    *MetaServer
	storage []*StorageServer
}

func newTestFS(t *testing.T, nDev int, stripeSize int64) *testFS {
	t.Helper()
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	mdsNode := f.AddNode(simnet.NodeConfig{Name: "mds"})
	clNode := f.AddNode(simnet.NodeConfig{Name: "client0"})
	tr := &rpc.FabricTransport{Fabric: f}

	var storage []*StorageServer
	var mdsConns, clConns []rpc.Conn
	for i := 0; i < nDev; i++ {
		n := f.AddNode(simnet.NodeConfig{Name: "io" + string(rune('0'+i))})
		s := NewStorageServer(StorageConfig{
			Transport: tr, Node: n,
			Disk: simdisk.New(simdisk.Config{Name: n.Name}),
		})
		storage = append(storage, s)
		mdsConns = append(mdsConns, &rpc.SimTransport{Fabric: f, Src: mdsNode, Dst: n, Service: ServiceIO})
		clConns = append(clConns, &rpc.SimTransport{Fabric: f, Src: clNode, Dst: n, Service: ServiceIO})
	}
	meta := NewMetaServer(MetaConfig{
		Transport: tr, Node: mdsNode,
		Dist:    DistParams{StripeSize: stripeSize, NumServers: uint32(nDev)},
		IOConns: mdsConns,
	})
	client := NewClient(ClientConfig{
		Node: clNode,
		Meta: &rpc.SimTransport{Fabric: f, Src: clNode, Dst: mdsNode, Service: ServiceMeta},
		IO:   clConns,
	})
	return &testFS{k: k, fabric: f, client: client, meta: meta, storage: storage}
}

// run executes fn as the lone application process and drives the kernel.
func (fs *testFS) run(t *testing.T, fn func(ctx *rpc.Ctx)) {
	t.Helper()
	fs.k.Go("app", func(p *sim.Proc) { fn(&rpc.Ctx{P: p}) })
	if err := fs.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	fs.run(t, func(ctx *rpc.Ctx) {
		f, err := fs.client.Create(ctx, "/data")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.client.Write(ctx, f, 0, payload.Real(data), false); err != nil {
			t.Fatal(err)
		}
		got, n, err := fs.client.Read(ctx, f, 0, 5000, true)
		if err != nil || n != 5000 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got.Bytes, data) {
			t.Fatal("striped data corrupted on round trip")
		}
	})
}

func TestStripePlacement(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, err := fs.client.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.client.Write(ctx, f, 0, payload.Real(make([]byte, 3500)), false); err != nil {
			t.Fatal(err)
		}
		// Units: dev0 gets [0,1000)+[3000,3500)=1500; dev1 1000; dev2 1000.
		wants := []int64{1500, 1000, 1000}
		for dev, want := range wants {
			id, ok := fs.storage[dev].object(f.Handle)
			if !ok {
				t.Fatalf("dev %d has no object", dev)
			}
			at, _ := fs.storage[dev].store.GetAttr(id)
			if at.Size != want {
				t.Errorf("dev %d object size %d, want %d", dev, at.Size, want)
			}
		}
	})
}

func TestGetAttrReconstructsSize(t *testing.T) {
	fs := newTestFS(t, 4, 64<<10)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		const size = 1<<20 + 12345 // deliberately unaligned
		if _, err := fs.client.Write(ctx, f, 0, payload.Synthetic(size), false); err != nil {
			t.Fatal(err)
		}
		got, err := fs.client.GetAttr(ctx, f)
		if err != nil || got != size {
			t.Fatalf("GetAttr = %d, %v; want %d", got, err, size)
		}
	})
}

func TestWriteReturnsLogicalSize(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		size, err := fs.client.Write(ctx, f, 2500, payload.Synthetic(1000), false)
		if err != nil || size != 3500 {
			t.Fatalf("write returned size %d, %v; want 3500", size, err)
		}
	})
}

func TestReadPastEOF(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		fs.client.Write(ctx, f, 0, payload.Synthetic(1500), false)
		_, n, err := fs.client.Read(ctx, f, 1000, 5000, false)
		if err != nil || n != 500 {
			t.Fatalf("read at EOF: n=%d err=%v, want 500", n, err)
		}
		_, n, _ = fs.client.Read(ctx, f, 9000, 100, false)
		if n != 0 {
			t.Fatalf("read past EOF returned %d bytes", n)
		}
	})
}

func TestHoleReadsAsZeros(t *testing.T) {
	fs := newTestFS(t, 2, 100)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		// Write [0,100) and [300,400); [100,300) is a hole.
		fs.client.Write(ctx, f, 0, payload.Real(bytes.Repeat([]byte{1}, 100)), false)
		fs.client.Write(ctx, f, 300, payload.Real(bytes.Repeat([]byte{2}, 100)), false)
		got, n, err := fs.client.Read(ctx, f, 0, 400, true)
		if err != nil || n != 400 {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		for i := 100; i < 300; i++ {
			if got.Bytes[i] != 0 {
				t.Fatalf("hole byte %d = %d, want 0", i, got.Bytes[i])
			}
		}
		if got.Bytes[0] != 1 || got.Bytes[399] != 2 {
			t.Fatal("written bytes corrupted around hole")
		}
	})
}

func TestNamespaceOps(t *testing.T) {
	fs := newTestFS(t, 2, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		if err := fs.client.Mkdir(ctx, "/dir"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.client.Create(ctx, "/dir/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.client.Create(ctx, "/dir/b"); err != nil {
			t.Fatal(err)
		}
		names, err := fs.client.ReadDir(ctx, "/dir")
		if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Fatalf("readdir: %v, %v", names, err)
		}
		if _, err := fs.client.Open(ctx, "/dir/missing"); err != store.ErrNotExist {
			t.Fatalf("open missing: %v", err)
		}
		if err := fs.client.Remove(ctx, "/dir/a"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.client.Open(ctx, "/dir/a"); err != store.ErrNotExist {
			t.Fatalf("open removed: %v", err)
		}
	})
}

func TestRemoveCleansDatafiles(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		for _, s := range fs.storage {
			if _, ok := s.object(f.Handle); !ok {
				t.Fatal("create did not make datafiles everywhere")
			}
		}
		if err := fs.client.Remove(ctx, "/f"); err != nil {
			t.Fatal(err)
		}
		for _, s := range fs.storage {
			if _, ok := s.object(f.Handle); ok {
				t.Fatal("remove left datafiles behind")
			}
		}
	})
}

func TestTruncate(t *testing.T) {
	fs := newTestFS(t, 3, 1000)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		fs.client.Write(ctx, f, 0, payload.Synthetic(10_000), false)
		if err := fs.client.Truncate(ctx, f, 2500); err != nil {
			t.Fatal(err)
		}
		size, err := fs.client.GetAttr(ctx, f)
		if err != nil || size != 2500 {
			t.Fatalf("size after truncate = %d, %v", size, err)
		}
	})
}

func TestSyncWaitsForDisk(t *testing.T) {
	fs := newTestFS(t, 2, 1<<20)
	fs.run(t, func(ctx *rpc.Ctx) {
		f, _ := fs.client.Create(ctx, "/f")
		// 50 MB lands in write-behind buffers quickly; Sync must wait for
		// the drain (~2.5 s at ~21 MB/s across 2 disks).
		fs.client.Write(ctx, f, 0, payload.Synthetic(50<<20), false)
		before := ctx.Now()
		if err := fs.client.Sync(ctx, f); err != nil {
			t.Fatal(err)
		}
		if wait := time.Duration(ctx.Now() - before); wait < 200*time.Millisecond {
			t.Fatalf("sync returned after %v; did not wait for disk drain", wait)
		}
	})
}

func TestSmallRequestsPayPerOpOverhead(t *testing.T) {
	// Moving 2 MB in 8 KiB requests must be much slower than one 2 MB
	// request — the PVFS2 small-I/O collapse.
	elapsed := func(reqSize int64) time.Duration {
		fs := newTestFS(t, 2, 2<<20)
		var took sim.Time
		fs.run(t, func(ctx *rpc.Ctx) {
			f, _ := fs.client.Create(ctx, "/f")
			for off := int64(0); off < 2<<20; off += reqSize {
				fs.client.Write(ctx, f, off, payload.Synthetic(reqSize), false)
			}
			took = ctx.Now()
		})
		return time.Duration(took)
	}
	small := elapsed(8 << 10)
	large := elapsed(2 << 20)
	if small < 5*large {
		t.Fatalf("8 KiB writes (%v) not substantially slower than 2 MB writes (%v)", small, large)
	}
}

func TestBufferPoolThrottlesConcurrentIO(t *testing.T) {
	// A daemon with 2×256 KiB buffers can hold only 512 KiB in flight; many
	// concurrent 512 KiB reads must serialize beyond what CPU/NIC require.
	run := func(buffers int) time.Duration {
		k := sim.NewKernel(1)
		f := simnet.NewFabric(k)
		ioNode := f.AddNode(simnet.NodeConfig{Name: "io"})
		srv := NewStorageServer(StorageConfig{
			Transport: &rpc.FabricTransport{Fabric: f}, Node: ioNode,
			Disk:    simdisk.New(simdisk.Config{Name: "d"}),
			Buffers: buffers, BufSize: 256 << 10, Threads: 32,
		})
		// Seed the object and warm the cache so only buffers matter.
		ctxSeed := &rpc.Ctx{}
		if _, st := srv.Handle(ctxSeed, ProcIOCreate, &IOCreateArgs{Handle: 1}); st != rpc.StatusOK {
			t.Fatal("seed create failed")
		}
		srv.store.WriteSyntheticAt(srv.objects[1], 0, 32<<20)
		srv.cfg.Disk.Warm(1, 0, 32<<20)
		var last sim.Time
		for i := 0; i < 16; i++ {
			cl := f.AddNode(simnet.NodeConfig{Name: "c" + string(rune('a'+i))})
			conn := &rpc.SimTransport{Fabric: f, Src: cl, Dst: ioNode, Service: ServiceIO}
			off := int64(i) * (512 << 10)
			k.Go("reader", func(p *sim.Proc) {
				var rep IOReadRep
				if err := conn.Call(&rpc.Ctx{P: p}, ProcIORead,
					&IOReadArgs{Handle: 1, Off: off, Len: 512 << 10}, &rep); err != nil {
					t.Error(err)
				}
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(last)
	}
	tight := run(2)
	roomy := run(64)
	if tight <= roomy {
		t.Fatalf("buffer pool had no effect: tight=%v roomy=%v", tight, roomy)
	}
}

func TestSplitParent(t *testing.T) {
	cases := []struct{ in, dir, name string }{
		{"/a", "/", "a"},
		{"/a/b/c", "/a/b/", "c"},
		{"/a/b/", "/a/", "b"},
		{"a", "", "a"},
	}
	for _, c := range cases {
		dir, name := splitParent(c.in)
		if dir != c.dir || name != c.name {
			t.Errorf("splitParent(%q) = (%q, %q), want (%q, %q)", c.in, dir, name, c.dir, c.name)
		}
	}
}

func TestObjSizes(t *testing.T) {
	m := NewMetaServer(MetaConfig{Dist: DistParams{StripeSize: 1000, NumServers: 3}}).Mapper()
	sizes := objSizes(m, 3, 3500)
	wants := []int64{1500, 1000, 1000}
	for i, w := range wants {
		if sizes[i] != w {
			t.Errorf("dev %d objSize %d, want %d", i, sizes[i], w)
		}
	}
	zero := objSizes(m, 3, 0)
	for _, s := range zero {
		if s != 0 {
			t.Error("zero logical size produced nonzero object sizes")
		}
	}
}
