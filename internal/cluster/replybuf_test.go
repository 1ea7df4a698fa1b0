package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
)

// TestRetainedReadReplyNeverAliasesPool drives a Direct-pNFS data server —
// NFS server, typed conduit, storage daemon: the whole chain behind one
// rpc.Ctx — with raw compounds on both transports.  A READ inside a
// non-idempotent compound lands in the session's replay cache, so its bytes
// must survive the first consumer's Release and any amount of pool reuse
// (under poison-on-put, pool memory reads 0xA5 the moment it is returned).
// An idempotent READ still gets the pooled buffer by reference on the
// fabric, counted in rpc_buf_copies_avoided_total (over TCP the frame
// writer's gathered opaques move the same counter, so it is asserted on the
// fabric only).
func TestRetainedReadReplyNeverAliasesPool(t *testing.T) {
	defer rpc.SetPoisonOnPut(rpc.SetPoisonOnPut(true))
	const size = 8 << 10
	want := make([]byte, size)
	for i := range want {
		want[i] = parityPattern(3, int64(i))
	}
	for _, kind := range []TransportKind{TransportSim, TransportTCP} {
		t.Run(string(kind), func(t *testing.T) {
			cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Backends: 2, Real: true, Transport: kind})
			defer cl.Close()
			_, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Create(ctx, "/f")
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, 0, payload.Real(want)); err != nil {
					return err
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				at, err := cl.PVFSMeta.Namespace().LookupPath("/f")
				if err != nil {
					return err
				}
				// The file's first stripe unit lives under the file's own
				// handle on exactly one daemon.
				holder := -1
				for i, s := range cl.Storage {
					if s.ObjectSize(pvfs.Handle(at.ID)) > 0 {
						holder = i
					}
				}
				if holder < 0 {
					return fmt.Errorf("no daemon holds the file's bytes")
				}
				conn := cl.dial(m.node.Name, cl.storageNodes[holder].Name, ServiceDS)
				call := func(args *nfs.CompoundArgs) (*nfs.CompoundRep, error) {
					var rep nfs.CompoundRep
					if err := conn.Call(ctx, nfs.ProcCompound, args, &rep); err != nil {
						return nil, err
					}
					return &rep, rep.Status.Err()
				}
				rep, err := call(&nfs.CompoundArgs{Ops: []nfs.Op{&nfs.OpCreateSession{Slots: 4}}})
				if err != nil {
					return err
				}
				sid := rep.Results[0].(*nfs.ResCreateSession).Session
				read := &nfs.OpRead{Len: size, WantReal: true}
				readOf := func(rep *nfs.CompoundRep) payload.Payload { return rep.Results[1].(*nfs.ResRead).Data }
				churn := func() {
					for i := 0; i < 8; i++ {
						rpc.PutBuf(rpc.GetBuf(size))
					}
				}

				// CLOSE makes the compound non-idempotent: its reply is cached.
				cached := &nfs.CompoundArgs{Session: sid, Slot: 0, Seq: 1,
					Ops: []nfs.Op{&nfs.OpPutFH{FH: uint64(at.ID)}, read, &nfs.OpClose{}}}
				_, avoided0 := rpc.BufCounters()
				if rep, err = call(cached); err != nil {
					return err
				}
				if got := readOf(rep); !bytes.Equal(got.Bytes, want) {
					return fmt.Errorf("first transmission: wrong bytes")
				} else {
					got.Release()
				}
				churn()
				if rep, err = call(cached); err != nil {
					return err
				}
				if got := readOf(rep); !bytes.Equal(got.Bytes, want) {
					return fmt.Errorf("retransmission answered from the replay cache: bytes changed (first byte %#x) — the cached reply aliased pool memory", got.Bytes[0])
				}
				if _, avoided := rpc.BufCounters(); kind == TransportSim && avoided != avoided0 {
					return fmt.Errorf("retained reply counted %d avoided copies, want 0", avoided-avoided0)
				}

				// Without CLOSE the same READ is idempotent and may be pooled.
				hot := &nfs.CompoundArgs{Session: sid, Slot: 1, Seq: 1,
					Ops: []nfs.Op{&nfs.OpPutFH{FH: uint64(at.ID)}, read}}
				if rep, err = call(hot); err != nil {
					return err
				}
				if got := readOf(rep); !bytes.Equal(got.Bytes, want) {
					return fmt.Errorf("idempotent read: wrong bytes")
				} else {
					got.Release()
				}
				if _, avoided := rpc.BufCounters(); kind == TransportSim && avoided-avoided0 != 1 {
					return fmt.Errorf("idempotent read moved rpc_buf_copies_avoided_total by %d, want 1", avoided-avoided0)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
