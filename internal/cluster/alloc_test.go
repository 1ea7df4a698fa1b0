package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
)

// Steady-state allocation ceilings for the client READ and WRITE hot paths
// (sim transport, mem backend, real bytes).  These pin the zero-copy work:
// pooled transfer buffers, borrowed XDR decode, page-cache segments that
// adopt the reply instead of copying it.  The ceilings are the measured
// values (240 read, 292 write per 8 MB pass, as BenchmarkClientRead/Write
// -benchmem -benchtime=20x report them) plus 10 %, so one more allocation
// per message trips them; before buffer pooling the same loops cost ~1000
// (read) and ~1120 (write) allocs per pass.  -race runs measure ~246/300,
// because the race detector drops pooled buffers.  A ceiling trip means a
// per-chunk copy or per-op allocation has crept back into the data path.
const (
	readAllocCeiling  = 264
	writeAllocCeiling = 321
)

func TestReadAllocCeiling(t *testing.T) {
	cl := newBenchCluster(t)
	avg := testing.AllocsPerRun(5, func() {
		if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
			m.DropCaches()
			f, err := m.Open(ctx, "/bench")
			if err != nil {
				return err
			}
			for off := int64(0); off < benchFileSize; off += benchBlock {
				p, got, err := m.Read(ctx, f, off, benchBlock)
				if err != nil {
					return err
				}
				if got != benchBlock {
					return fmt.Errorf("short read: %d of %d at %d", got, benchBlock, off)
				}
				p.Release()
			}
			return m.Close(ctx, f)
		}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > readAllocCeiling {
		t.Errorf("cold-cache read pass: %.0f allocs, ceiling %d", avg, readAllocCeiling)
	}
}

func TestWriteAllocCeiling(t *testing.T) {
	cl := newBenchCluster(t)
	buf := make([]byte, benchBlock)
	for i := range buf {
		buf[i] = byte(i)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
			f, err := m.Open(ctx, "/bench")
			if err != nil {
				return err
			}
			for off := int64(0); off < benchFileSize; off += benchBlock {
				if err := m.Write(ctx, f, off, payload.Real(buf)); err != nil {
					return err
				}
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > writeAllocCeiling {
		t.Errorf("gathered write pass: %.0f allocs, ceiling %d", avg, writeAllocCeiling)
	}
}

// TestPageCacheCopiesNothingOnAlignedReadOverTCP guards the one-pass claim
// with the cache's own count of the bytes it memcpy's
// (nfs_client_pagecache_copied_bytes_total): over real sockets, a write pass
// copies exactly the bytes written — once, into the cache; the WSize flushes
// are views — and a cold, RSize-aligned read pass copies none: each reply
// frame is adopted by the cache and viewed by the application.  The
// transport's side of the same claim is rpc_buf_copies_avoided_total, which
// counts the payloads both directions sent by reference.  The checksum pass
// is held the same way (nfs_client_pagecache_sealed_bytes_total): a write
// pass seals exactly the bytes written, as it copies them, and the cold read
// pass seals none — every block's sum is the one the data server's store
// verified, adopted from the reply.
func TestPageCacheCopiesNothingOnAlignedReadOverTCP(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, Transport: TransportTCP})
	defer cl.Close()
	const copied = "nfs_client_pagecache_copied_bytes_total"
	const sealed = "nfs_client_pagecache_sealed_bytes_total"
	buf := make([]byte, benchBlock)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	_, avoided0 := rpc.BufCounters()
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		f, err := m.Create(ctx, "/f")
		if err != nil {
			return err
		}
		for off := int64(0); off < benchFileSize; off += benchBlock {
			if err := m.Write(ctx, f, off, payload.Real(buf)); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterSum(cl, copied); got != benchFileSize {
		t.Fatalf("write pass: page cache copied %.0f bytes, want exactly the %d written", got, benchFileSize)
	}
	if got := counterSum(cl, sealed); got != benchFileSize {
		t.Fatalf("write pass: page cache sealed %.0f bytes, want exactly the %d written", got, benchFileSize)
	}
	_, avoided1 := rpc.BufCounters()
	if sent := avoided1 - avoided0; sent < benchFileSize/benchBlock {
		t.Errorf("write pass: %d payloads sent by reference, want at least one per WRITE", sent)
	}

	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		m.DropCaches()
		f, err := m.Open(ctx, "/f")
		if err != nil {
			return err
		}
		for off := int64(0); off < benchFileSize; off += benchBlock {
			p, got, err := m.Read(ctx, f, off, benchBlock)
			if err != nil {
				return err
			}
			if got != benchBlock || !bytes.Equal(p.Bytes, buf) {
				return fmt.Errorf("read at %d: %d bytes, content match %v", off, got, bytes.Equal(p.Bytes, buf))
			}
			p.Release()
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterSum(cl, copied); got != benchFileSize {
		t.Fatalf("cold aligned read pass: page cache copied %.0f bytes, want 0", got-benchFileSize)
	}
	if got := counterSum(cl, sealed); got != benchFileSize {
		t.Fatalf("cold aligned read pass: page cache sealed %.0f bytes, want 0", got-benchFileSize)
	}
	if _, avoided2 := rpc.BufCounters(); avoided2-avoided1 < benchFileSize/benchBlock {
		t.Errorf("read pass: %d payloads sent by reference, want at least one per READ reply", avoided2-avoided1)
	}
}

// TestPageCacheSealsWhereBlocksMisalign: the page cache adopts a data
// server's block sums only where the server's blocks and the file's line up
// — device offset ≡ file offset mod 64 KB — and seals everything else
// itself.  A 96 KB stripe unit puts every other unit's device offset half a
// block away from its file offset, so a cold read pass seals exactly those
// units plus the partial blocks at the edges of the aligned ones.
func TestPageCacheSealsWhereBlocksMisalign(t *testing.T) {
	const unit, size = 96 << 10, 12 * (96 << 10)
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Backends: 3, Real: true, StripeSize: unit})
	defer cl.Close()
	const sealed = "nfs_client_pagecache_sealed_bytes_total"
	content := failoverPattern(0, size)
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		f, err := m.Create(ctx, "/f")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Real(content)); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	written := counterSum(cl, sealed)

	var want int64
	for _, e := range stripe.NewRoundRobin(unit, 3).Map(0, size) {
		if (e.DevOff-e.Off)%store.ChunkSize != 0 {
			want += e.Len
			continue
		}
		// Aligned: the whole blocks are adopted, the partial ones sealed.
		lo := (e.Off + store.ChunkSize - 1) / store.ChunkSize * store.ChunkSize
		hi := (e.Off + e.Len) / store.ChunkSize * store.ChunkSize
		want += e.Len - max(hi-lo, 0)
	}
	if want == 0 || want == size {
		t.Fatalf("the geometry seals %d of %d bytes: the test needs adopted and sealed units", want, size)
	}
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		m.DropCaches()
		f, err := m.Open(ctx, "/f")
		if err != nil {
			return err
		}
		p, n, err := m.Read(ctx, f, 0, size)
		if err != nil {
			return err
		}
		defer p.Release()
		if n != size || !bytes.Equal(p.Bytes, content) {
			return fmt.Errorf("read back %d bytes, content match %v", n, bytes.Equal(p.Bytes, content))
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterSum(cl, sealed) - written; got != float64(want) {
		t.Fatalf("cold read pass sealed %.0f bytes, want %d (misaligned units and aligned units' edges)", got, want)
	}
}
