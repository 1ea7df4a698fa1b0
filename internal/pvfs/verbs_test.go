package pvfs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// verbFS is a metadata server over in-process storage daemons whose conns
// log every datafile-object create and remove the MDS fans out.
type verbFS struct {
	meta *MetaServer
	mu   sync.Mutex
	log  []string
}

// loggedDaemon is the MDS's conn to one storage daemon.
type loggedDaemon struct {
	fs  *verbFS
	dev int
	s   *StorageServer
}

func (d loggedDaemon) Call(ctx *rpc.Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	resp, status := d.s.Handle(ctx, proc, args)
	if status != rpc.StatusOK {
		return status
	}
	if proc == ProcIOCreate || proc == ProcIORemove {
		d.fs.mu.Lock()
		d.fs.log = append(d.fs.log, fmt.Sprintf("dev%d proc%d handle%d", d.dev, proc, args.(*HandleArgs).Handle))
		d.fs.mu.Unlock()
	}
	return xdr.Unmarshal(xdr.Marshal(resp), rep)
}

func newVerbFS(nDev int) *verbFS {
	fs := &verbFS{}
	var conns []rpc.Conn
	for i := 0; i < nDev; i++ {
		conns = append(conns, loggedDaemon{fs: fs, dev: i, s: NewStorageServer(StorageConfig{})})
	}
	fs.meta = NewMetaServer(MetaConfig{Dist: DistParams{StripeSize: 64 << 10}, IOConns: conns})
	return fs
}

// fanout returns (and clears) the object creates/removes since the last
// call, sorted: the daemons are driven in parallel.
func (fs *verbFS) fanout() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := fs.log
	fs.log = nil
	sort.Strings(out)
	return out
}

// walk renders the whole namespace, ids included.
func (fs *verbFS) walk(t *testing.T) []string {
	t.Helper()
	var out []string
	w := fs.meta.Namespace().(interface {
		Walk(func(dir store.FileID, name string, at store.Attr) error) error
	})
	if err := w.Walk(func(dir store.FileID, name string, at store.Attr) error {
		out = append(out, fmt.Sprintf("%d/%s id=%d dir=%v", dir, name, at.ID, at.IsDir))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPathAndHandleProceduresAgree drives every namespace verb that has
// both forms once through its path procedure and once through its handle
// procedure, against two fresh metadata servers, step by step: the replies,
// the datafile-object fan-out and the resulting namespace must be identical,
// on the error rows as much as on the successful ones.  (Rename has only the
// handle form.)  Inode numbers are allocated in order, so the handles the
// handle column names are the ones the earlier steps returned: / is 1, /d 2,
// /d/f 3, /d/sub 4, /d/sub/g 5.
func TestPathAndHandleProceduresAgree(t *testing.T) {
	dirOp := func(dir Handle, name string) *DirOpArgs { return &DirOpArgs{Dir: dir, Name: name} }
	steps := []struct {
		name            string
		pathProc, hProc uint32
		path            string
		hArgs           xdr.Marshaler
		errno           fserr.Errno
		objects         int // datafile objects created or removed, per daemon
	}{
		{"mkdir", ProcMkdir, ProcMkdirH, "/d", dirOp(1, "d"), fserr.OK, 0},
		{"mkdir: name exists", ProcMkdir, ProcMkdirH, "/d", dirOp(1, "d"), fserr.Exist, 0},
		{"create", ProcCreate, ProcCreateH, "/d/f", dirOp(2, "f"), fserr.OK, 1},
		{"create: name exists", ProcCreate, ProcCreateH, "/d/f", dirOp(2, "f"), fserr.Exist, 0},
		{"create: missing parent", ProcCreate, ProcCreateH, "/missing/f", dirOp(99, "f"), fserr.NoEnt, 0},
		{"create: parent is a file", ProcCreate, ProcCreateH, "/d/f/x", dirOp(3, "x"), fserr.NotDir, 0},
		{"mkdir nested", ProcMkdir, ProcMkdirH, "/d/sub", dirOp(2, "sub"), fserr.OK, 0},
		{"create nested", ProcCreate, ProcCreateH, "/d/sub/g", dirOp(4, "g"), fserr.OK, 1},
		{"mkdir: missing parent", ProcMkdir, ProcMkdirH, "/missing/x", dirOp(99, "x"), fserr.NoEnt, 0},
		{"lookup file", ProcLookup, ProcLookupH, "/d/f", dirOp(2, "f"), fserr.OK, 0},
		{"lookup directory", ProcLookup, ProcLookupH, "/d/sub", dirOp(2, "sub"), fserr.OK, 0},
		{"lookup: no such name", ProcLookup, ProcLookupH, "/d/nope", dirOp(2, "nope"), fserr.NoEnt, 0},
		{"lookup: file as a directory", ProcLookup, ProcLookupH, "/d/f/x", dirOp(3, "x"), fserr.NotDir, 0},
		{"readdir", ProcReadDir, ProcReadDirH, "/d", &ReadDirHArgs{Handle: 2}, fserr.OK, 0},
		{"readdir: a file", ProcReadDir, ProcReadDirH, "/d/f", &ReadDirHArgs{Handle: 3}, fserr.NotDir, 0},
		{"readdir: no such directory", ProcReadDir, ProcReadDirH, "/missing", &ReadDirHArgs{Handle: 99}, fserr.NoEnt, 0},
		{"remove: non-empty directory", ProcRemove, ProcRemoveH, "/d", dirOp(1, "d"), fserr.NotEmpty, 0},
		{"remove file", ProcRemove, ProcRemoveH, "/d/f", dirOp(2, "f"), fserr.OK, 1},
		{"remove: already gone", ProcRemove, ProcRemoveH, "/d/f", dirOp(2, "f"), fserr.NoEnt, 0},
		{"remove: missing parent", ProcRemove, ProcRemoveH, "/missing/x", dirOp(99, "x"), fserr.NoEnt, 0},
		{"remove nested file", ProcRemove, ProcRemoveH, "/d/sub/g", dirOp(4, "g"), fserr.OK, 1},
		{"remove empty directory", ProcRemove, ProcRemoveH, "/d/sub", dirOp(2, "sub"), fserr.OK, 0},
	}
	const nDev = 3
	byPath, byHandle := newVerbFS(nDev), newVerbFS(nDev)
	ctx := &rpc.Ctx{}
	for _, st := range steps {
		pRep, pStatus := byPath.meta.Handle(ctx, st.pathProc, &PathArgs{Path: st.path})
		hRep, hStatus := byHandle.meta.Handle(ctx, st.hProc, st.hArgs)
		if pStatus != rpc.StatusOK || hStatus != rpc.StatusOK {
			t.Fatalf("%s: rpc status %v / %v", st.name, pStatus, hStatus)
		}
		if !reflect.DeepEqual(pRep, hRep) {
			t.Errorf("%s: path procedure replied %+v, handle procedure %+v", st.name, pRep, hRep)
		}
		var got ErrnoRep // every reply leads with its status
		if err := xdr.NewDecoder(xdr.Marshal(pRep)).Unmarshal(&got); err != nil || got.Errno != st.errno {
			t.Errorf("%s: status %v (decode: %v), want %v", st.name, got.Errno, err, st.errno)
		}
		pFan, hFan := byPath.fanout(), byHandle.fanout()
		if !reflect.DeepEqual(pFan, hFan) {
			t.Errorf("%s: object fan-out differs:\n path   %v\n handle %v", st.name, pFan, hFan)
		}
		if want := nDev * st.objects; len(pFan) != want {
			t.Errorf("%s: %d object creates/removes, want %d: %v", st.name, len(pFan), want, pFan)
		}
		if pw, hw := byPath.walk(t), byHandle.walk(t); !reflect.DeepEqual(pw, hw) {
			t.Errorf("%s: namespaces diverged:\n path   %v\n handle %v", st.name, pw, hw)
		}
	}
	if left := byPath.walk(t); !reflect.DeepEqual(left, []string{"1/d id=2 dir=true"}) {
		t.Errorf("final namespace %v, want only /d", left)
	}
}
