package cluster

import (
	"fmt"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// driveEngineWorkload writes a deterministic pattern through a Real
// simulated cluster with a narrow engine window and reads it back cold.
// Mixed request sizes cross stripe-unit boundaries (multi-extent fan-out),
// a stripe unit and writes above the PVFS2 client's 256 KB flow buffer
// force request splitting wherever a PVFS2 client is on the data path, and
// small sequential re-reads make adjacent missing chunks coalesce — every
// engine feature is on the data path.  It also returns the requests the
// PVFS2 clients' splitting added (ioengine_split_total{issuer="pvfs"}).
func driveEngineWorkload(t *testing.T, arch Arch) (out [][]byte, pvfsSplits float64) {
	t.Helper()
	const (
		clients  = 2
		stripe   = 512 << 10
		fileSize = 1<<20 + 300<<10 + 17
		rchunk   = 8 << 10
	)
	wchunks := []int64{50_000, 512, 300_000, 8 << 10, 600_000}
	cl := New(Config{
		Arch:       arch,
		Clients:    clients,
		Backends:   4,
		StripeSize: stripe,
		WSize:      stripe,
		RSize:      stripe,
		MaxFlight:  3,
		Real:       true,
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

	out = make([][]byte, clients)
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
	for _, fam := range cl.Metrics().Snapshot().Metrics {
		if fam.Name == "ioengine_split_total" {
			for _, s := range fam.Series {
				if s.Labels["issuer"] == "pvfs" {
					pvfsSplits += s.Value
				}
			}
		}
	}
	return out, pvfsSplits
}

// TestIOEngineParityAllArchitectures is the engine's correctness pin: on
// all five architectures, data routed through the I/O engine's sliding
// window, with coalescing engaged, reads back byte-identical to the
// written pattern.  Every architecture but Direct-pNFS, whose data servers
// call their co-located daemons directly, has a PVFS2 client on the data
// path, and that client must have split requests at its flow buffer.
func TestIOEngineParityAllArchitectures(t *testing.T) {
	for _, arch := range Archs {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			out, splits := driveEngineWorkload(t, arch)
			if arch != ArchDirectPNFS && splits == 0 {
				t.Errorf("no PVFS2 request was split: the check is vacuous")
			}
			for i, got := range out {
				for off, b := range got {
					if want := parityPattern(i, int64(off)); b != want {
						t.Fatalf("client %d: byte %d = %#x, want %#x", i, off, b, want)
					}
				}
			}
		})
	}
}
