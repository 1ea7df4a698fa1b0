package nfs

import (
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
)

// StoreBackend has the data and namespace roles (the layout role is absent:
// TestServerAnswersForAbsentRoles).
var (
	_ Backend   = (*StoreBackend)(nil)
	_ Namespace = (*StoreBackend)(nil)
)

// dataOnly is a backend with nothing but the role every server has.
type dataOnly struct{ reads, writes, commits int }

func (b *dataOnly) Read(*rpc.Ctx, uint64, int64, int64, bool) (payload.Payload, bool, store.BlockSums, error) {
	b.reads++
	return payload.Synthetic(0), true, store.BlockSums{}, nil
}
func (b *dataOnly) Write(_ *rpc.Ctx, _ uint64, _ int64, data payload.Payload, _ store.BlockSums, _ bool) (int64, error) {
	b.writes++
	return data.Len(), nil
}
func (b *dataOnly) Commit(*rpc.Ctx, uint64) error { b.commits++; return nil }

// TestServerAnswersForAbsentRoles: a server whose backend is only a Backend
// serves READ/WRITE/COMMIT and answers every namespace operation, and the
// layout queries a mounting client sends, with Inval itself; LAYOUTCOMMIT
// keeps the IO a layout-less backend's error always mapped to.  A
// StoreBackend has the namespace but not the layouts, so a client mounting
// it proxies its I/O (TestMountEstablishesSession: PNFS() == false).
func TestServerAnswersForAbsentRoles(t *testing.T) {
	run := func(s *Server, ops ...Op) *CompoundRep {
		t.Helper()
		rep, status := s.Handle(&rpc.Ctx{}, ProcCompound, &CompoundArgs{Ops: ops})
		if status != rpc.StatusOK {
			t.Fatalf("rpc status %v", status)
		}
		return rep.(*CompoundRep)
	}
	// refused: the compound stops at its last op with errno, and the failed
	// result is of that op's own type (clients type-assert results).
	refused := func(s *Server, errno fserr.Errno, ops ...Op) {
		t.Helper()
		rep := run(s, ops...)
		last := ops[len(ops)-1]
		if rep.Status != errno || len(rep.Results) != len(ops) {
			t.Errorf("%T: compound status %v with %d results, want %v at op %d", last, rep.Status, len(rep.Results), errno, len(ops))
			return
		}
		if res := rep.Results[len(ops)-1]; res.Num() != last.Num() || res.Status() != errno {
			t.Errorf("%T: failed result %T status %v, want that op's result with %v", last, res, res.Status(), errno)
		}
	}

	back := &dataOnly{}
	ds := NewServer(ServerConfig{Backend: back})
	refused(ds, fserr.Inval, &OpPutRootFH{})
	for _, op := range []Op{
		&OpLookup{Name: "f"}, &OpOpen{Name: "f", Create: true}, &OpGetAttr{},
		&OpCreate{Name: "d"}, &OpRemove{Name: "f"}, &OpRename{Src: "a", Dst: "b"}, &OpReadDir{},
		&OpGetDevList{}, &OpLayoutGet{},
	} {
		refused(ds, fserr.Inval, &OpPutFH{FH: 1}, op)
	}
	refused(ds, fserr.IO, &OpPutFH{FH: 1}, &OpLayoutCommit{NewSize: 1})
	if rep := run(ds, &OpPutFH{FH: 7}, &OpWrite{Data: payload.Synthetic(10)}, &OpRead{Len: 10}, &OpCommit{}); rep.Status != fserr.OK {
		t.Errorf("data ops on a data-only backend: status %v", rep.Status)
	}
	if back.reads != 1 || back.writes != 1 || back.commits != 1 {
		t.Errorf("data-only backend saw %d reads, %d writes, %d commits; want one each", back.reads, back.writes, back.commits)
	}

	var plain Backend = NewStoreBackend(mem.New())
	if _, ok := plain.(LayoutSource); ok {
		t.Fatal("StoreBackend must not have the layout role")
	}
	nfsv4 := NewServer(ServerConfig{Backend: plain})
	if rep := run(nfsv4, &OpPutRootFH{}, &OpReadDir{}, &OpOpen{Name: "f", Create: true}, &OpGetAttr{}); rep.Status != fserr.OK {
		t.Errorf("namespace ops on a StoreBackend: status %v", rep.Status)
	}
	refused(nfsv4, fserr.Inval, &OpPutRootFH{}, &OpGetDevList{})
	refused(nfsv4, fserr.Inval, &OpPutRootFH{}, &OpLayoutGet{})
	refused(nfsv4, fserr.IO, &OpPutRootFH{}, &OpLayoutCommit{})
}
