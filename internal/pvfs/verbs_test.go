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
	fs.meta = NewMetaServer(MetaConfig{Dist: DistParams{StripeSize: 64 << 10, Servers: serverIDs(len(conns))}, Dial: dialByID(conns)})
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

// TestRootAndParentNamesAgree drives every namespace verb of the walk
// through two fresh metadata servers, step by step: once naming the entry
// by its whole path from the root handle, as the native client does
// (DirOpArgs{1, "d/sub/g"}), and once by its last name under its parent's
// handle, as the NFS servers do (DirOpArgs{4, "g"}).  The replies, the
// datafile-object fan-out and the resulting namespace must be identical,
// on the error rows as much as on the successful ones.  A readdir row
// compares the client's ReadDir of the path with READDIR-H of the handle.
// Inode numbers are allocated in order, so the handles the parent column
// names are the ones the earlier steps returned: / is 1, /d 2, /d/f 3,
// /d/sub 4, /d/sub/g 5.
func TestRootAndParentNamesAgree(t *testing.T) {
	dirOp := func(dir Handle, name string) *DirOpArgs { return &DirOpArgs{Dir: dir, Name: name} }
	steps := []struct {
		name    string
		proc    uint32
		path    string // from the root
		parent  xdr.Marshaler
		errno   fserr.Errno
		objects int // datafile objects created or removed, per daemon
	}{
		{"mkdir", ProcMkdirH, "d", dirOp(1, "d"), fserr.OK, 0},
		{"mkdir: name exists", ProcMkdirH, "d", dirOp(1, "d"), fserr.Exist, 0},
		{"create", ProcCreateH, "d/f", dirOp(2, "f"), fserr.OK, 1},
		{"create: name exists", ProcCreateH, "d/f", dirOp(2, "f"), fserr.Exist, 0},
		{"create: missing parent", ProcCreateH, "missing/f", dirOp(99, "f"), fserr.NoEnt, 0},
		{"create: parent is a file", ProcCreateH, "d/f/x", dirOp(3, "x"), fserr.NotDir, 0},
		{"mkdir nested", ProcMkdirH, "d/sub", dirOp(2, "sub"), fserr.OK, 0},
		{"create nested", ProcCreateH, "d/sub/g", dirOp(4, "g"), fserr.OK, 1},
		{"mkdir: missing parent", ProcMkdirH, "missing/x", dirOp(99, "x"), fserr.NoEnt, 0},
		{"lookup file", ProcLookupH, "d/f", dirOp(2, "f"), fserr.OK, 0},
		{"lookup directory", ProcLookupH, "d/sub", dirOp(2, "sub"), fserr.OK, 0},
		{"lookup: no such name", ProcLookupH, "d/nope", dirOp(2, "nope"), fserr.NoEnt, 0},
		{"lookup: file as a directory", ProcLookupH, "d/f/x", dirOp(3, "x"), fserr.NotDir, 0},
		{"lookup: empty components skipped", ProcLookupH, "/d//f/", dirOp(2, "f"), fserr.OK, 0},
		{"lookup: .. never resolves", ProcLookupH, "d/../d/f", dirOp(2, ".."), fserr.NoEnt, 0},
		{"readdir", ProcReadDirH, "d", &ReadDirHArgs{Handle: 2}, fserr.OK, 0},
		{"readdir: a file", ProcReadDirH, "d/f", &ReadDirHArgs{Handle: 3}, fserr.NotDir, 0},
		{"readdir: no such directory", ProcReadDirH, "missing", &ReadDirHArgs{Handle: 99}, fserr.NoEnt, 0},
		{"remove: non-empty directory", ProcRemoveH, "d", dirOp(1, "d"), fserr.NotEmpty, 0},
		{"remove file", ProcRemoveH, "d/f", dirOp(2, "f"), fserr.OK, 1},
		{"remove: already gone", ProcRemoveH, "d/f", dirOp(2, "f"), fserr.NoEnt, 0},
		{"remove: missing parent", ProcRemoveH, "missing/x", dirOp(99, "x"), fserr.NoEnt, 0},
		{"remove nested file", ProcRemoveH, "d/sub/g", dirOp(4, "g"), fserr.OK, 1},
		{"remove empty directory", ProcRemoveH, "d/sub", dirOp(2, "sub"), fserr.OK, 0},
	}
	const nDev = 3
	byRoot, byParent := newVerbFS(nDev), newVerbFS(nDev)
	client := NewClient(ClientConfig{Meta: rpc.LocalConn(byRoot.meta.Handle)})
	ctx := &rpc.Ctx{}
	for _, st := range steps {
		pRep, pStatus := byParent.meta.Handle(ctx, st.proc, st.parent)
		if pStatus != rpc.StatusOK {
			t.Fatalf("%s: rpc status %v", st.name, pStatus)
		}
		var got ErrnoRep // every reply leads with its status
		if err := xdr.NewDecoder(xdr.Marshal(pRep)).Unmarshal(&got); err != nil || got.Errno != st.errno {
			t.Errorf("%s: status %v (decode: %v), want %v", st.name, got.Errno, err, st.errno)
		}
		if st.proc == ProcReadDirH {
			names, err := client.ReadDir(ctx, "/"+st.path)
			if want := pRep.(*ReadDirRep); err != want.Errno.Err() || !reflect.DeepEqual(names, want.Names) {
				t.Errorf("%s: ReadDir(%q) = %v, %v; READDIR-H replied %+v", st.name, "/"+st.path, names, err, want)
			}
		} else {
			rRep, rStatus := byRoot.meta.Handle(ctx, st.proc, dirOp(1, st.path))
			if rStatus != rpc.StatusOK || !reflect.DeepEqual(rRep, pRep) {
				t.Errorf("%s: named from the root replied %+v (%v), from the parent %+v", st.name, rRep, rStatus, pRep)
			}
		}
		rFan, pFan := byRoot.fanout(), byParent.fanout()
		if !reflect.DeepEqual(rFan, pFan) {
			t.Errorf("%s: object fan-out differs:\n root   %v\n parent %v", st.name, rFan, pFan)
		}
		if want := nDev * st.objects; len(pFan) != want {
			t.Errorf("%s: %d object creates/removes, want %d: %v", st.name, len(pFan), want, pFan)
		}
		if rw, pw := byRoot.walk(t), byParent.walk(t); !reflect.DeepEqual(rw, pw) {
			t.Errorf("%s: namespaces diverged:\n root   %v\n parent %v", st.name, rw, pw)
		}
	}
	if left := byRoot.walk(t); !reflect.DeepEqual(left, []string{"1/d id=2 dir=true"}) {
		t.Errorf("final namespace %v, want only /d", left)
	}
}

// refuseCreate is the MDS's conn to a storage daemon that answers
// IO-CREATE with IO while *refuse is set.
type refuseCreate struct {
	rpc.Conn
	refuse *bool
}

func (c refuseCreate) Call(ctx *rpc.Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if proc == ProcIOCreate && *c.refuse {
		rep.(*IOCreateRep).Errno = fserr.IO
		return nil
	}
	return c.Conn.Call(ctx, proc, args, rep)
}

// TestFailedCreateIsUndone: a CREATE-H whose datafile-object fan-out fails
// on one daemon answers IO and leaves nothing behind — no name, no
// placement, no object on the daemons that did create theirs — so once the
// daemon heals, the same CREATE-H makes the file and GETATTR answers for it.
func TestFailedCreateIsUndone(t *testing.T) {
	fs := &verbFS{}
	refuse := true
	var daemons []*StorageServer
	var conns []rpc.Conn
	for i := 0; i < 3; i++ {
		s := NewStorageServer(StorageConfig{})
		daemons = append(daemons, s)
		var conn rpc.Conn = loggedDaemon{fs: fs, dev: i, s: s}
		if i == 1 {
			conn = refuseCreate{conn, &refuse}
		}
		conns = append(conns, conn)
	}
	fs.meta = NewMetaServer(MetaConfig{Dist: DistParams{StripeSize: 64 << 10, Servers: serverIDs(len(conns))}, Dial: dialByID(conns)})
	client := NewClient(ClientConfig{Meta: rpc.LocalConn(fs.meta.Handle)})
	ctx := &rpc.Ctx{}
	root := client.RootHandle()

	if _, _, err := client.CreateH(ctx, root, "f"); err != fserr.ErrIO {
		t.Fatalf("create with io1 refusing: %v, want fserr.ErrIO", err)
	}
	if _, _, _, err := client.LookupH(ctx, root, "f"); err != store.ErrNotExist {
		t.Fatalf("lookup after the failed create: %v, want store.ErrNotExist", err)
	}
	if left := fs.walk(t); len(left) != 0 {
		t.Fatalf("the failed create left %v in the namespace", left)
	}
	if len(fs.meta.records) != 0 {
		t.Fatalf("the failed create left placement records %v", fs.meta.records)
	}
	// io0 and io2 made their objects; the undo removed them on every daemon.
	const failed = Handle(2) // the first inode after the root
	var want []string
	for dev, procs := range [][]uint32{{ProcIOCreate, ProcIORemove}, {ProcIORemove}, {ProcIOCreate, ProcIORemove}} {
		for _, proc := range procs {
			want = append(want, fmt.Sprintf("dev%d proc%d handle%d", dev, proc, failed))
		}
	}
	sort.Strings(want)
	if got := fs.fanout(); !reflect.DeepEqual(got, want) {
		t.Fatalf("object fan-out of the failed create:\n got  %v\n want %v", got, want)
	}
	for i, s := range daemons {
		if _, e := s.object(failed); e != fserr.Stale {
			t.Errorf("io%d: the failed create's object answers %v, want Stale (gone)", i, e)
		}
	}

	refuse = false
	h, _, err := client.CreateH(ctx, root, "f")
	if err != nil {
		t.Fatalf("create after io1 healed: %v", err)
	}
	if isDir, size, _, err := client.GetAttrH(ctx, h); err != nil || isDir || size != 0 {
		t.Fatalf("getattr of the new file: dir=%v size=%d err=%v, want an empty file", isDir, size, err)
	}
}
