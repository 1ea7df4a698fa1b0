package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// parityPattern is the deterministic content client i writes at offset off.
func parityPattern(i int, off int64) byte {
	return byte(31*i + 7*int(off%251) + int(off/251))
}

// driveParityWorkload runs the figure-style Direct-pNFS sequence on a
// cluster of the given transport kind: two clients each create a file,
// write it in odd-sized chunks (spanning stripe units and partial blocks),
// fsync, close, reopen, and read it back in small blocks.  It returns the
// bytes each client read.
func driveParityWorkload(t *testing.T, kind TransportKind) [][]byte {
	t.Helper()
	const (
		clients  = 2
		stripe   = 64 << 10
		fileSize = 300<<10 + 17 // several stripes, odd tail
		wchunk   = 50_000       // misaligned write size
		rchunk   = 8 << 10
	)
	cl := New(Config{
		Arch:       ArchDirectPNFS,
		Clients:    clients,
		Backends:   4,
		StripeSize: stripe,
		WSize:      stripe,
		RSize:      stripe,
		Real:       true,
		Transport:  kind,
	})
	defer cl.Close()

	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		return m.Mkdir(ctx, "/data")
	}); err != nil {
		t.Fatalf("%s setup: %v", kind, err)
	}

	path := func(i int) string { return fmt.Sprintf("/data/f%d", i) }
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, path(i))
		if err != nil {
			return err
		}
		for off := int64(0); off < fileSize; off += wchunk {
			n := int64(wchunk)
			if off+n > fileSize {
				n = fileSize - off
			}
			buf := make([]byte, n)
			for k := range buf {
				buf[k] = parityPattern(i, off+int64(k))
			}
			if err := m.Write(ctx, f, off, payload.Real(buf)); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("%s write phase: %v", kind, err)
	}

	out := make([][]byte, clients)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		m.DropCaches()
		f, err := m.Open(ctx, path(i))
		if err != nil {
			return err
		}
		size, err := m.Size(ctx, f)
		if err != nil {
			return err
		}
		if size != fileSize {
			return fmt.Errorf("size = %d, want %d", size, fileSize)
		}
		got := make([]byte, 0, size)
		for off := int64(0); off < size; off += rchunk {
			data, n, err := m.Read(ctx, f, off, rchunk)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("unexpected EOF at %d", off)
			}
			if data.Bytes == nil {
				return fmt.Errorf("synthetic payload at %d on a Real mount", off)
			}
			got = append(got, data.Bytes...)
		}
		out[i] = got
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("%s read phase: %v", kind, err)
	}
	return out
}

// TestTCPTransportParity drives the same Direct-pNFS read/write sequence
// over the simulated fabric and over a real localhost TCP cluster and
// asserts byte-identical results (and that both match the written pattern).
func TestTCPTransportParity(t *testing.T) {
	sim := driveParityWorkload(t, TransportSim)
	tcp := driveParityWorkload(t, TransportTCP)
	for i := range sim {
		for off, b := range sim[i] {
			if want := parityPattern(i, int64(off)); b != want {
				t.Fatalf("sim client %d: byte %d = %#x, want %#x", i, off, b, want)
			}
		}
		if !bytes.Equal(sim[i], tcp[i]) {
			t.Fatalf("client %d: TCP read-back differs from simulated fabric (lens %d vs %d)",
				i, len(tcp[i]), len(sim[i]))
		}
	}
}

// TestTCPAllArchitectures smoke-tests every architecture over real loopback
// sockets: create, write, fsync, stat, read back, readdir.
func TestTCPAllArchitectures(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{
				Arch:       arch,
				Clients:    2,
				Backends:   4,
				StripeSize: 64 << 10,
				WSize:      64 << 10,
				RSize:      64 << 10,
				Real:       true,
				Transport:  TransportTCP,
			})
			defer cl.Close()
			msg := []byte("direct-pnfs over real sockets: " + string(arch))
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
				path := fmt.Sprintf("/f%d-%s", i, arch)
				f, err := m.Create(ctx, path)
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, 0, payload.Real(msg)); err != nil {
					return err
				}
				if err := m.Fsync(ctx, f); err != nil {
					return err
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				f, err = m.Open(ctx, path)
				if err != nil {
					return err
				}
				got, n, err := m.Read(ctx, f, 0, int64(len(msg))+10)
				if err != nil {
					return err
				}
				if n != int64(len(msg)) || !payload.Equal(got, payload.Real(msg)) {
					return fmt.Errorf("read back %d bytes %q, want %q", n, got.Bytes, msg)
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatalf("%s over TCP: %v", arch, err)
			}
		})
	}
}

// TestTCPModelOnlyGatesStayClosed pins the two behaviours that are
// simulated-only on purpose (docs/ARCHITECTURE.md "Execution modes"): NFS
// readahead and the PVFS2 daemon's modelled transfer-buffer pool.  One
// sequential write and read-back engages both on the fabric and neither
// over TCP; whoever lifts a gate (ROADMAP lead (c)) changes this test too.
func TestTCPModelOnlyGatesStayClosed(t *testing.T) {
	const (
		stripe = 64 << 10
		blocks = 16
	)
	for _, kind := range []TransportKind{TransportSim, TransportTCP} {
		t.Run(string(kind), func(t *testing.T) {
			cl := New(Config{
				Arch: ArchDirectPNFS, Clients: 1, Backends: 4,
				StripeSize: stripe, WSize: stripe, RSize: stripe,
				Real: true, Transport: kind,
			})
			defer cl.Close()
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Create(ctx, "/seq")
				if err != nil {
					return err
				}
				for b := int64(0); b < blocks; b++ {
					if err := m.Write(ctx, f, b*stripe, payload.Real(make([]byte, stripe))); err != nil {
						return err
					}
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				m.DropCaches()
				if f, err = m.Open(ctx, "/seq"); err != nil {
					return err
				}
				for b := int64(0); b < blocks; b++ {
					data, n, err := m.Read(ctx, f, b*stripe, stripe)
					if err != nil || n != stripe {
						return fmt.Errorf("read block %d: n=%d err=%v", b, n, err)
					}
					data.Release()
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatal(err)
			}
			readahead := counterSum(cl, "nfs_client_readahead_chunks_total")
			var bufWaits uint64
			for _, m := range cl.Metrics().Snapshot().Metrics {
				if m.Name == "pvfs_storage_buffer_wait_seconds" {
					for _, s := range m.Series {
						bufWaits += s.Count
					}
				}
			}
			if engaged := kind == TransportSim; (readahead > 0) != engaged || (bufWaits > 0) != engaged {
				t.Errorf("%s: readahead chunks = %v, buffer-pool waits = %d; want both nonzero on sim, both zero on tcp",
					kind, readahead, bufWaits)
			}
		})
	}
}
