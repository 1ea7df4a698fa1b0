package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// Steady-state allocation ceilings for the client READ and WRITE hot paths
// (sim transport, mem backend, real bytes).  These pin the zero-copy work:
// pooled transfer buffers, borrowed XDR decode, page-cache segments that
// adopt the reply instead of copying it.  The ceilings carry ~35% headroom
// over measured values (365 read, 498 write per 8 MB pass); before buffer
// pooling the same loops cost ~1000 (read) and ~1120 (write) allocs per
// pass, so a ceiling trip means a per-chunk copy or per-op allocation has
// crept back into the data path.
const (
	readAllocCeiling  = 490
	writeAllocCeiling = 670
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
// counts the payloads both directions sent by reference.
func TestPageCacheCopiesNothingOnAlignedReadOverTCP(t *testing.T) {
	cl := New(Config{Arch: ArchDirectPNFS, Clients: 1, Real: true, Transport: TransportTCP})
	defer cl.Close()
	const copied = "nfs_client_pagecache_copied_bytes_total"
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
	if _, avoided2 := rpc.BufCounters(); avoided2-avoided1 < benchFileSize/benchBlock {
		t.Errorf("read pass: %d payloads sent by reference, want at least one per READ reply", avoided2-avoided1)
	}
}
