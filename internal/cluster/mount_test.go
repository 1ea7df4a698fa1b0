package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
)

// TestMountSurfaceMatchesModel drives one seeded op mix through the Mount
// surface on all five architectures and both transports — one client, real
// bytes — and checks every result against a reference model: a map from
// path to bytes.  The mix covers create-or-open of new and existing files,
// writes at random offsets (holes included), fsync, close, dropped caches,
// reopen and whole-file reads, Stat and Size, rename (with and without a
// replaced target) inside a nested directory, remove and readdir.  A failure
// names the seed and the step.
func TestMountSurfaceMatchesModel(t *testing.T) {
	const seed, steps = 1, 100
	for _, arch := range Archs {
		for _, tr := range []TransportKind{TransportSim, TransportTCP} {
			t.Run(fmt.Sprintf("%s-%s", arch, tr), func(t *testing.T) {
				if err := runMountModel(arch, tr, seed, steps); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		}
	}
}

// The model's namespace: files live in a top-level and a nested directory,
// under a handful of names so creates, renames and removes keep colliding.
var (
	modelDirs     = []string{"/", "/m", "/m/a", "/m/a/b"}
	modelFileDirs = []string{"/m", "/m/a/b"}
)

const modelNames = 5

// runMountModel runs steps seeded operations on a fresh cluster and returns
// the first disagreement with the model, naming its step.
func runMountModel(arch Arch, tr TransportKind, seed int64, steps int) error {
	cl := New(Config{
		Arch: arch, Backends: 4, Transport: tr, Real: true, Seed: seed,
		StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
	})
	defer cl.Close()
	rng := rand.New(rand.NewSource(seed))
	files := map[string][]byte{}
	_, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *Mount, _ int) error {
		for _, d := range modelDirs[1:] {
			if err := m.Mkdir(ctx, d); err != nil {
				return fmt.Errorf("mkdir %s: %w", d, err)
			}
		}
		// OPEN of a directory answers ISDIR (RFC 5661 §18.16), creating or
		// not.  Outside the seeded mix, so its sequence stays the same.  The
		// root has no name to OPEN under (the NFS servers answer Inval).
		opens := []struct {
			verb string
			open func(*rpc.Ctx, string) (*File, error)
		}{{"open", m.Open}, {"create", m.Create}}
		for _, d := range modelDirs[1:] {
			for _, o := range opens {
				if f, err := o.open(ctx, d); !errors.Is(err, store.ErrIsDir) {
					if err == nil {
						m.Close(ctx, f)
					}
					return fmt.Errorf("%s of directory %s: %v, want %v", o.verb, d, err, store.ErrIsDir)
				}
			}
		}
		for step := 0; step < steps; step++ {
			if err := modelStep(ctx, m, rng, files); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		return nil
	})
	return err
}

// modelStep performs one randomly chosen operation on m and on the model.
func modelStep(ctx *rpc.Ctx, m *Mount, rng *rand.Rand, files map[string][]byte) error {
	dir := modelFileDirs[rng.Intn(len(modelFileDirs))]
	var inDir []string
	for p := range files {
		if path.Dir(p) == dir {
			inDir = append(inDir, path.Base(p))
		}
	}
	sort.Strings(inDir)
	switch op := rng.Intn(10); {
	case op < 5 || len(inDir) == 0:
		p := path.Join(dir, fmt.Sprintf("f%d", rng.Intn(modelNames)))
		data := make([]byte, 1+rng.Intn(40<<10))
		rng.Read(data)
		return modelWrite(ctx, m, p, rng.Int63n(200<<10), data, rng.Intn(2) == 0, files)
	case op < 7:
		src := inDir[rng.Intn(len(inDir))]
		dst := fmt.Sprintf("f%d", rng.Intn(modelNames))
		if dst == src {
			dst += "r"
		}
		if err := m.Rename(ctx, dir, src, dst); err != nil {
			return fmt.Errorf("rename %s/%s -> %s: %w", dir, src, dst, err)
		}
		files[path.Join(dir, dst)] = files[path.Join(dir, src)]
		delete(files, path.Join(dir, src))
		return nil
	case op < 8:
		p := path.Join(dir, inDir[rng.Intn(len(inDir))])
		if err := m.Remove(ctx, p); err != nil {
			return fmt.Errorf("remove %s: %w", p, err)
		}
		delete(files, p)
		if f, err := m.Open(ctx, p); err == nil {
			m.Close(ctx, f)
			return fmt.Errorf("open %s after its remove succeeded", p)
		}
		return nil
	default:
		d := modelDirs[rng.Intn(len(modelDirs))]
		got, err := m.ReadDir(ctx, d)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", d, err)
		}
		sort.Strings(got)
		if want := modelList(d, files); strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("readdir %s = %q, model has %q", d, got, want)
		}
		return nil
	}
}

// modelWrite creates (or opens) p, writes data at off, optionally fsyncs,
// closes, drops the client caches, then reopens p and checks its whole
// contents, a read at EOF, Size and Stat against the model.
func modelWrite(ctx *rpc.Ctx, m *Mount, p string, off int64, data []byte, fsync bool, files map[string][]byte) error {
	f, err := m.Create(ctx, p)
	if err != nil {
		return fmt.Errorf("create %s: %w", p, err)
	}
	if err := m.Write(ctx, f, off, payload.Real(data)); err != nil {
		return fmt.Errorf("write %s at %d: %w", p, off, err)
	}
	if fsync {
		if err := m.Fsync(ctx, f); err != nil {
			return fmt.Errorf("fsync %s: %w", p, err)
		}
	}
	if err := m.Close(ctx, f); err != nil {
		return fmt.Errorf("close %s: %w", p, err)
	}
	want := files[p]
	if end := off + int64(len(data)); end > int64(len(want)) {
		want = append(want, make([]byte, end-int64(len(want)))...)
	}
	copy(want[off:], data)
	files[p] = want

	m.DropCaches()
	if f, err = m.Open(ctx, p); err != nil {
		return fmt.Errorf("reopen %s: %w", p, err)
	}
	defer m.Close(ctx, f)
	size := int64(len(want))
	got := make([]byte, 0, size)
	for int64(len(got)) < size {
		at := int64(len(got))
		data, n, err := m.Read(ctx, f, at, size-at)
		if err != nil {
			return fmt.Errorf("read %s at %d: %w", p, at, err)
		}
		if n == 0 || int64(len(data.Bytes)) != n {
			return fmt.Errorf("read %s at %d: %d bytes counted, %d returned", p, at, n, len(data.Bytes))
		}
		got = append(got, data.Bytes...)
		data.Release()
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		return fmt.Errorf("read %s: byte %d of %d is %#x, model has %#x", p, i, size, got[i], want[i])
	}
	if _, n, err := m.Read(ctx, f, size, 1); err != nil || n != 0 {
		return fmt.Errorf("read %s at EOF %d: %d bytes, %v", p, size, n, err)
	}
	if got, err := m.Size(ctx, f); err != nil || got != size {
		return fmt.Errorf("size %s = %d, %v; model has %d", p, got, err, size)
	}
	if got, err := m.Stat(ctx, f); err != nil || got != size {
		return fmt.Errorf("stat %s = %d, %v; model has %d", p, got, err, size)
	}
	return nil
}

// modelList is the model's sorted listing of directory d: its files and
// its subdirectories.
func modelList(d string, files map[string][]byte) []string {
	var out []string
	for _, sub := range modelDirs[1:] {
		if path.Dir(sub) == d {
			out = append(out, path.Base(sub))
		}
	}
	for p := range files {
		if path.Dir(p) == d {
			out = append(out, path.Base(p))
		}
	}
	sort.Strings(out)
	return out
}

// TestMountReportsPNFS: the mounts of the three pNFS architectures adopt a
// device list; an NFSv4 server lists none, so its mount proxies I/O, and a
// PVFS2 mount has no pNFS and no client cache to drop.  On every
// architecture a file reads back after DropCaches.
func TestMountReportsPNFS(t *testing.T) {
	want := map[Arch]bool{ArchDirectPNFS: true, ArchPNFS2Tier: true, ArchPNFS3Tier: true}
	data := memberPattern(0, 256<<10)
	for _, arch := range Archs {
		cl := New(Config{Arch: arch, Clients: 1, Real: true})
		_, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
			if m.PNFS() != want[arch] {
				return fmt.Errorf("PNFS() = %v, want %v", m.PNFS(), want[arch])
			}
			if err := writeWhole(ctx, m, "/f", data); err != nil {
				return err
			}
			m.DropCaches()
			return readWhole(ctx, m, "/f", data)
		})
		cl.Close()
		if err != nil {
			t.Errorf("%s: %v", arch, err)
		}
	}
}
