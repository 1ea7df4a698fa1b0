package nfs

import (
	"bytes"
	"errors"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

// pnfsTestBackend grants layouts over two devices; both the MDS and the
// healthy data server share its store, so I/O through either path lands in
// the same place (the Direct-pNFS arrangement, minus the daemon plumbing).
type pnfsTestBackend struct {
	*StoreBackend
}

func (b *pnfsTestBackend) DevList(*rpc.Ctx) ([]pnfs.DeviceInfo, error) {
	return []pnfs.DeviceInfo{{ID: 0, Addr: "good"}, {ID: 1, Addr: "bad"}}, nil
}

func (b *pnfsTestBackend) LayoutGet(_ *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error) {
	return &pnfs.FileLayout{
		Aggregation: pnfs.AggRoundRobin,
		Params:      []int64{64 << 10},
		Devices:     []pnfs.DeviceID{0, 1},
		FHs:         []uint64{fh, fh},
		Direct:      false, // logical offsets: both servers see the same store
	}, nil
}

func (b *pnfsTestBackend) LayoutCommit(*rpc.Ctx, uint64, int64) error { return nil }

// failConn always errors, simulating a dead data server.
type failConn struct{}

var errDeadDS = errors.New("nfs test: data server unreachable")

func (failConn) Call(*rpc.Ctx, uint32, xdr.Marshaler, xdr.Unmarshaler) error {
	return errDeadDS
}

// TestFailoverPNFSFallsBackThroughMDS is the protocol-level half of the
// failover story: a permanently dead data server (not a crash/restart —
// the conn always errors) must push every affected extent through the
// layout-recovery ladder and land on the MDS-proxied path.  The
// cluster-level, table-driven suite that runs crash/recover against all
// five architectures is TestFailoverAllArchitectures in internal/cluster.
func TestFailoverPNFSFallsBackThroughMDS(t *testing.T) {
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	mdsNode := f.AddNode(simnet.NodeConfig{Name: "mds"})
	goodNode := f.AddNode(simnet.NodeConfig{Name: "good"})
	clNode := f.AddNode(simnet.NodeConfig{Name: "client"})

	backend := &pnfsTestBackend{NewStoreBackend(mem.New(), nil)}
	mds := NewServer(ServerConfig{Backend: backend, Node: mdsNode})
	rpc.ServeSim(rpc.ServerConfig{Fabric: f, Node: mdsNode, Service: "mds", Handler: mds.Handle})
	ds := NewServer(ServerConfig{Backend: backend, Node: goodNode})
	rpc.ServeSim(rpc.ServerConfig{Fabric: f, Node: goodNode, Service: "ds", Handler: ds.Handle})

	client := NewClient(ClientConfig{
		Node: clNode, Real: true,
		MDS: &rpc.SimTransport{Fabric: f, Src: clNode, Dst: mdsNode, Service: "mds"},
		DialDS: func(addr string) rpc.Conn {
			if addr == "bad" {
				return failConn{}
			}
			return &rpc.SimTransport{Fabric: f, Src: clNode, Dst: goodNode, Service: "ds"}
		},
		WSize: 64 << 10, RSize: 64 << 10,
	})

	data := bytes.Repeat([]byte("failover"), 40<<10) // 320 KiB over 5 stripe units
	k.Go("app", func(p *sim.Proc) {
		ctx := &rpc.Ctx{P: p}
		if err := client.Mount(ctx); err != nil {
			t.Error(err)
			return
		}
		if !client.PNFS() {
			t.Error("mount did not obtain layouts")
			return
		}
		fl, err := client.Create(ctx, "/x")
		if err != nil {
			t.Error(err)
			return
		}
		// Half the stripe units route to the dead DS; the writes must still
		// complete via the MDS fallback.
		if err := client.Write(ctx, fl, 0, payload.Real(data)); err != nil {
			t.Errorf("write with dead DS: %v", err)
			return
		}
		if err := client.Close(ctx, fl); err != nil {
			t.Errorf("close with dead DS: %v", err)
			return
		}
		// Cold re-read must also survive the dead DS.
		client.DropCaches()
		g, err := client.Open(ctx, "/x")
		if err != nil {
			t.Error(err)
			return
		}
		got, n, err := client.Read(ctx, g, 0, int64(len(data)))
		if err != nil || n != int64(len(data)) {
			t.Errorf("read with dead DS: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(got.Bytes, data) {
			t.Error("fallback path corrupted data")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The server-side store must hold the complete file.
	at, err := backend.Store.LookupPath("/x")
	if err != nil {
		t.Fatal(err)
	}
	if at.Size != int64(len(data)) {
		t.Fatalf("server holds %d bytes, want %d", at.Size, len(data))
	}
}
