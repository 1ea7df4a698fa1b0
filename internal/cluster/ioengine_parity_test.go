package cluster

import (
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// driveEngineWorkload writes a deterministic pattern through a Real
// simulated cluster with the given engine knobs and reads it back cold.
// Mixed request sizes cross stripe-unit boundaries (multi-extent fan-out),
// the tiny MaxTransfer forces request splitting, and small sequential
// re-reads make adjacent missing chunks coalesce — every engine feature is
// on the data path.
func driveEngineWorkload(t *testing.T, arch Arch) [][]byte {
	t.Helper()
	const (
		clients  = 2
		stripe   = 64 << 10
		fileSize = 300<<10 + 17
		rchunk   = 8 << 10
	)
	wchunks := []int64{50_000, 512, 130_000, 8 << 10}
	cl := New(Config{
		Arch:        arch,
		Clients:     clients,
		Backends:    4,
		StripeSize:  stripe,
		WSize:       stripe,
		RSize:       stripe,
		MaxFlight:   3,
		MaxTransfer: 20_000, // misaligned: splits nearly every extent
		Real:        true,
	})
	defer cl.Close()

	path := func(i int) string { return fmt.Sprintf("/f%d", i) }
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		f, err := m.Create(ctx, path(i))
		if err != nil {
			return err
		}
		for off, k := int64(0), 0; off < fileSize; k++ {
			n := wchunks[k%len(wchunks)]
			if off+n > fileSize {
				n = fileSize - off
			}
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = parityPattern(i, off+int64(j))
			}
			if err := m.Write(ctx, f, off, payload.Real(buf)); err != nil {
				return err
			}
			off += n
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		t.Fatalf("%s write phase: %v", arch, err)
	}

	out := make([][]byte, clients)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, i int) error {
		m.DropCaches()
		f, err := m.Open(ctx, path(i))
		if err != nil {
			return err
		}
		got := make([]byte, 0, fileSize)
		for off := int64(0); off < fileSize; off += rchunk {
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
		t.Fatalf("%s read phase: %v", arch, err)
	}
	return out
}

// TestIOEngineParityAllArchitectures is the engine's correctness pin
// (ISSUE 4): on all five architectures, data routed through the I/O
// engine's sliding window — with coalescing and MaxTransfer splitting
// engaged — reads back byte-identical to the written pattern.
func TestIOEngineParityAllArchitectures(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			for i, got := range driveEngineWorkload(t, arch) {
				for off, b := range got {
					if want := parityPattern(i, int64(off)); b != want {
						t.Fatalf("client %d: byte %d = %#x, want %#x", i, off, b, want)
					}
				}
			}
		})
	}
}
