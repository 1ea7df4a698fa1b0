package pvfs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
)

// daemonCreate and daemonRemove send IO-CREATE and IO-REMOVE to the daemon
// and return the reply's status.
func daemonCreate(s *StorageServer, h Handle) fserr.Errno {
	rep, _ := s.Handle(&rpc.Ctx{}, ProcIOCreate, &IOCreateArgs{Handle: h})
	return rep.(*IOCreateRep).Errno
}

func daemonRemove(s *StorageServer, h Handle) fserr.Errno {
	rep, _ := s.Handle(&rpc.Ctx{}, ProcIORemove, &IORemoveArgs{Handle: h})
	return rep.(*IORemoveRep).Errno
}

// TestRemoveReclaimsObjects: IO-REMOVE hands the object's chunks back to the
// store at once, so a daemon that creates, writes and removes objects over
// and over never holds more than the one live object's chunks — a bound
// that does not depend on time or on a checkpoint coming round.
func TestRemoveReclaimsObjects(t *testing.T) {
	const (
		cycles  = 2000
		size    = 2*store.ChunkSize + 100
		perFile = 3 // chunks one object of size bytes materializes
	)
	st := mem.New()
	s := NewStorageServer(StorageConfig{Store: st})
	data := payload.Real(bytes.Repeat([]byte{0x5a}, size))
	for i := 0; i < cycles; i++ {
		h := Handle(i + 1)
		if e := daemonCreate(s, h); e != fserr.OK {
			t.Fatalf("cycle %d: IO-CREATE: %v", i, e)
		}
		if rep := s.Write(&rpc.Ctx{}, &IOWriteArgs{Handle: h, Data: data}, store.BlockSums{}); rep.Errno != fserr.OK {
			t.Fatalf("cycle %d: IO-WRITE: %v", i, rep.Errno)
		}
		if n := st.Chunks(); n > perFile {
			t.Fatalf("cycle %d: the store holds %d chunks, one object needs %d: removed objects were not reclaimed", i, n, perFile)
		}
		if e := daemonRemove(s, h); e != fserr.OK {
			t.Fatalf("cycle %d: IO-REMOVE: %v", i, e)
		}
	}
	if n := st.Chunks(); n != 0 {
		t.Fatalf("%d chunks left after every object was removed", n)
	}
}

// TestReadRacingRemove: IO-READs racing the IO-REMOVE of their object, while
// the next object is written into whatever chunks the remove freed, answer
// an error or the removed object's bytes — never the next object's — and
// once the remove has returned, only an error.  Run it under -race.
func TestReadRacingRemove(t *testing.T) {
	const (
		rounds = 300
		size   = 2 * store.ChunkSize
	)
	s := NewStorageServer(StorageConfig{Store: mem.New()})
	pattern := func(i int) []byte { return bytes.Repeat([]byte{byte(i%251 + 1)}, size) }
	write := func(i int) {
		if e := daemonCreate(s, Handle(i+1)); e != fserr.OK {
			t.Errorf("IO-CREATE %d: %v", i, e)
		}
		if rep := s.Write(&rpc.Ctx{}, &IOWriteArgs{Handle: Handle(i + 1), Data: payload.Real(pattern(i))}, store.BlockSums{}); rep.Errno != fserr.OK {
			t.Errorf("IO-WRITE %d: %v", i, rep.Errno)
		}
	}
	write(0)
	for i := 0; i < rounds && !t.Failed(); i++ {
		started, removed := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		// The reader reads object i until a read fails; the remover starts
		// once the first read is in, so every later read races the remove
		// and the next object's write.
		go func() {
			defer wg.Done()
			want := pattern(i)
			for k := 0; ; k++ {
				var gone bool
				select {
				case <-removed:
					gone = true
				default:
				}
				rep, _ := s.Read(&rpc.Ctx{}, &IOReadArgs{Handle: Handle(i + 1), Len: size, WantReal: true})
				if k == 0 {
					close(started)
				}
				served := rep.Errno == fserr.OK
				switch {
				case served && gone:
					t.Errorf("round %d: a read issued after IO-REMOVE returned was served", i)
				case served && !bytes.Equal(rep.Data.Bytes, want):
					t.Errorf("round %d: a read racing the remove returned bytes its object never held", i)
				}
				rep.Data.Release()
				if !served || gone {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-started
			if e := daemonRemove(s, Handle(i+1)); e != fserr.OK {
				t.Errorf("IO-REMOVE %d: %v", i, e)
			}
			close(removed)
			write(i + 1)
		}()
		wg.Wait()
	}
}

// TestRemoveUnderInFlightIOAnswersStale: an IO-REMOVE — a migration's flip
// among them — can reclaim an object while an IO-WRITE or IO-READ that
// already resolved its handle waits inside its CPU charge.  That request
// must answer Stale, on which a client re-reads the placement and re-runs
// the operation where the file now lives; NoEnt would reach the
// application as a failed call.
func TestRemoveUnderInFlightIOAnswersStale(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name string
		io   func(s *StorageServer, ctx *rpc.Ctx) fserr.Errno
	}{
		{"WRITE", func(s *StorageServer, ctx *rpc.Ctx) fserr.Errno {
			return s.Write(ctx, &IOWriteArgs{Handle: 1, Data: payload.Real(make([]byte, size))}, store.BlockSums{}).Errno
		}},
		{"READ", func(s *StorageServer, ctx *rpc.Ctx) fserr.Errno {
			rep, _ := s.Read(ctx, &IOReadArgs{Handle: 1, Len: size, WantReal: true})
			return rep.Errno
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			n := simnet.NewFabric(k).AddNode(simnet.NodeConfig{Name: "io"})
			s := NewStorageServer(StorageConfig{Node: n, Disk: simdisk.New(simdisk.DefaultConfig("d"))})
			if e := daemonCreate(s, 1); e != fserr.OK {
				t.Fatalf("IO-CREATE: %v", e)
			}
			if rep := s.Write(&rpc.Ctx{}, &IOWriteArgs{Handle: 1, Data: payload.Real(make([]byte, size))}, store.BlockSums{}); rep.Errno != fserr.OK {
				t.Fatalf("seed IO-WRITE: %v", rep.Errno)
			}
			var got fserr.Errno
			k.Go("io", func(p *sim.Proc) { got = tc.io(s, &rpc.Ctx{P: p}) })
			k.Go("remove", func(p *sim.Proc) {
				// The 1 MiB request's CPU charge runs for 20 ms; the
				// remove lands 1 ms into it, on the node's other core.
				p.Sleep(time.Millisecond)
				rep, _ := s.Handle(&rpc.Ctx{P: p}, ProcIORemove, &IORemoveArgs{Handle: 1})
				if e := rep.(*IORemoveRep).Errno; e != fserr.OK {
					t.Errorf("IO-REMOVE: %v", e)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got != fserr.Stale {
				t.Fatalf("IO-%s whose object was removed under it answered %v, want %v", tc.name, got, fserr.Stale)
			}
		})
	}
}
