// Package workload implements the paper's six benchmarks (§6): the IOR
// micro-benchmark, the ATLAS Digitization trace replay, NAS BTIO, the OLTP
// and Postmark macro-benchmarks, and the SSH-build task.  Each workload is
// written once against cluster.Mount and runs unchanged on all five
// architectures.
//
// Paper mapping: IOR drives Figures 6 (writes, §6.3.1) and 7 (warm-cache
// reads, §6.3.2); ATLAS, BTIO, OLTP, and Postmark drive Figures 8a–8d
// (§6.4.1–§6.4.2); SSHBuild reproduces the §6.4.3 build-phase study.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// Result is one workload execution's outcome.
type Result struct {
	Clients      int
	Bytes        int64         // payload bytes moved in the measured phase
	Elapsed      time.Duration // virtual time of the measured phase
	Transactions int
}

// ThroughputMBs returns aggregate MB/s (decimal MB, as the paper plots).
func (r Result) ThroughputMBs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// TPS returns transactions per second.
func (r Result) TPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Transactions) / r.Elapsed.Seconds()
}

// IORConfig parameterizes the IOR-style micro-benchmark (§6.2).
type IORConfig struct {
	FileSize int64 // per client (paper: 500 MB)
	Block    int64 // application request size (paper: 2-4 MB or 8 KB)
	// MixedBlocks, when non-empty, cycles the request size through the list
	// instead of using Block — the heterogeneous-request pattern the
	// window-sweep figure uses to make transfer times uneven.
	MixedBlocks []int64
	Separate    bool // separate files vs disjoint regions of one file
	Read        bool // read phase (against a warm server cache) vs write
}

// blockAt returns the k-th request's size.
func (c IORConfig) blockAt(k int) int64 {
	if len(c.MixedBlocks) > 0 {
		return c.MixedBlocks[k%len(c.MixedBlocks)]
	}
	return c.Block
}

// IOR runs the micro-benchmark and returns the measured phase.
func IOR(cl *cluster.Cluster, cfg IORConfig) (Result, error) {
	if cfg.FileSize <= 0 {
		cfg.FileSize = 500 << 20
	}
	if cfg.Block <= 0 {
		cfg.Block = 2 << 20
	}
	clients := len(cl.Mounts())
	path := func(i int) string {
		if cfg.Separate {
			return fmt.Sprintf("/ior.%d", i)
		}
		return "/ior.single"
	}
	region := func(i int) int64 {
		if cfg.Separate {
			return 0
		}
		return int64(i) * cfg.FileSize
	}

	// Setup: create the files outside the measured phase.
	if cfg.Separate {
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			f, err := m.Create(ctx, path(i))
			if err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			return Result{}, fmt.Errorf("ior setup: %w", err)
		}
	} else {
		if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
			f, err := m.Create(ctx, path(0))
			if err != nil {
				return err
			}
			return m.Close(ctx, f)
		}); err != nil {
			return Result{}, fmt.Errorf("ior setup: %w", err)
		}
	}

	write := func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Open(ctx, path(i))
		if err != nil {
			return err
		}
		base := region(i)
		for off, k := int64(0), 0; off < cfg.FileSize; k++ {
			n := cfg.blockAt(k)
			if off+n > cfg.FileSize {
				n = cfg.FileSize - off
			}
			if err := m.Write(ctx, f, base+off, payload.Synthetic(n)); err != nil {
				return err
			}
			off += n
		}
		// IOR -e semantics: fsync before close, so the measurement reflects
		// data on stable storage for every architecture.
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}

	if !cfg.Read {
		elapsed, err := cl.Run(write)
		if err != nil {
			return Result{}, fmt.Errorf("ior write: %w", err)
		}
		return Result{Clients: clients, Bytes: cfg.FileSize * int64(clients), Elapsed: elapsed}, nil
	}

	// Read mode: populate, warm the server caches, then measure reads with
	// cold client caches (the paper's warm-server-cache methodology).
	if _, err := cl.Run(write); err != nil {
		return Result{}, fmt.Errorf("ior populate: %w", err)
	}
	for _, m := range cl.Mounts() {
		m.DropCaches()
	}
	if cfg.Separate {
		for i := 0; i < clients; i++ {
			if err := cl.WarmCaches(path(i)); err != nil {
				return Result{}, err
			}
		}
	} else if err := cl.WarmCaches(path(0)); err != nil {
		return Result{}, err
	}
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Open(ctx, path(i))
		if err != nil {
			return err
		}
		base := region(i)
		for off, k := int64(0), 0; off < cfg.FileSize; k++ {
			n := cfg.blockAt(k)
			if off+n > cfg.FileSize {
				n = cfg.FileSize - off
			}
			if _, got, err := m.Read(ctx, f, base+off, n); err != nil {
				return err
			} else if got != n {
				return fmt.Errorf("short read at %d: %d of %d", base+off, got, n)
			}
			off += n
		}
		return nil
	})
	if err != nil {
		return Result{}, fmt.Errorf("ior read: %w", err)
	}
	return Result{Clients: clients, Bytes: cfg.FileSize * int64(clients), Elapsed: elapsed}, nil
}

// ATLASConfig parameterizes the Digitization write replay (§6.3.1): each
// client spreads ~TotalBytes randomly over its own file; 95% of requests
// are small but 95% of the bytes ride in requests ≥ 275 KB.
type ATLASConfig struct {
	TotalBytes int64 // per client (paper: ~650 MB for 500 events)
	Seed       int64
}

// ATLAS replays the Digitization write trace and reports aggregate write
// throughput.
func ATLAS(cl *cluster.Cluster, cfg ATLASConfig) (Result, error) {
	if cfg.TotalBytes <= 0 {
		cfg.TotalBytes = 650 << 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	clients := len(cl.Mounts())
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/atlas.%d", i))
		if err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return Result{}, err
	}
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		f, err := m.Open(ctx, fmt.Sprintf("/atlas.%d", i))
		if err != nil {
			return err
		}
		// Build segments covering the file once, with the trace's request
		// mix (95% of requests tiny, 95% of the bytes in ≥ 275 KB
		// requests), then write them in random order: Digitization spreads
		// the data randomly over the file but every byte is written once.
		type seg struct{ off, n int64 }
		var segs []seg
		var off int64
		for off < cfg.TotalBytes {
			var n int64
			if rng.Float64() < 0.95 {
				n = 1<<10 + rng.Int63n(3<<10) // 1-4 KiB small requests
			} else {
				n = 275<<10 + rng.Int63n(1<<20) // 275 KiB - 1.25 MiB bulk
			}
			if off+n > cfg.TotalBytes {
				n = cfg.TotalBytes - off
			}
			segs = append(segs, seg{off, n})
			off += n
		}
		rng.Shuffle(len(segs), func(a, b int) { segs[a], segs[b] = segs[b], segs[a] })
		for _, s := range segs {
			if err := m.Write(ctx, f, s.off, payload.Synthetic(s.n)); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Clients: clients, Bytes: cfg.TotalBytes * int64(clients), Elapsed: elapsed}, nil
}

// BTIOConfig parameterizes the NAS BT-IO class-A-like run (§6.3.2): a
// shared checkpoint file written collectively every five time steps, then
// ingested and verified.
type BTIOConfig struct {
	CheckpointBytes int64 // total file size (paper class A: 400 MB)
	Checkpoints     int   // 200 steps / 5 = 40
}

// BTIO runs the checkpoint benchmark and reports total running time (the
// paper's Figure 8b plots seconds, lower is better).
func BTIO(cl *cluster.Cluster, cfg BTIOConfig) (Result, error) {
	if cfg.CheckpointBytes <= 0 {
		cfg.CheckpointBytes = 400 << 20
	}
	if cfg.Checkpoints <= 0 {
		cfg.Checkpoints = 40
	}
	clients := len(cl.Mounts())
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		f, err := m.Create(ctx, "/btio")
		if err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return Result{}, err
	}
	perCkpt := cfg.CheckpointBytes / int64(cfg.Checkpoints)
	slice := perCkpt / int64(clients)
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Open(ctx, "/btio")
		if err != nil {
			return err
		}
		// Write phase: collective-buffered appends (≥ 1 MB requests).
		for c := 0; c < cfg.Checkpoints; c++ {
			base := int64(c)*perCkpt + int64(i)*slice
			if err := m.Write(ctx, f, base, payload.Synthetic(slice)); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		// Ingestion + verification: read the full file back.
		g, err := m.Open(ctx, "/btio")
		if err != nil {
			return err
		}
		total := perCkpt * int64(cfg.Checkpoints)
		chunk := int64(2 << 20)
		for off := int64(i) * chunk; off < total; off += chunk * int64(clients) {
			n := chunk
			if off+n > total {
				n = total - off
			}
			if _, _, err := m.Read(ctx, g, off, n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Clients: clients, Bytes: cfg.CheckpointBytes * 2, Elapsed: elapsed}, nil
}

// OLTPConfig parameterizes the database macro-benchmark (§6.4.1):
// read-modify-write transactions of 8 KB against one large file, with data
// forced to stable storage after every transaction.
type OLTPConfig struct {
	FileBytes    int64 // shared table size (default 512 MB)
	Transactions int   // per client (paper: 20 000)
	Seed         int64
}

// OLTP runs the transaction benchmark and reports aggregate I/O throughput
// (16 KB moved per transaction: 8 read + 8 written).
func OLTP(cl *cluster.Cluster, cfg OLTPConfig) (Result, error) {
	if cfg.FileBytes <= 0 {
		cfg.FileBytes = 512 << 20
	}
	if cfg.Transactions <= 0 {
		cfg.Transactions = 20000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	clients := len(cl.Mounts())
	// Setup: client 0 creates and prefills the table.
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		f, err := m.Create(ctx, "/oltp")
		if err != nil {
			return err
		}
		for off := int64(0); off < cfg.FileBytes; off += 4 << 20 {
			if err := m.Write(ctx, f, off, payload.Synthetic(4<<20)); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	}); err != nil {
		return Result{}, err
	}
	if err := cl.WarmCaches("/oltp"); err != nil {
		return Result{}, err
	}
	const rec = 8 << 10
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		f, err := m.Open(ctx, "/oltp")
		if err != nil {
			return err
		}
		for t := 0; t < cfg.Transactions; t++ {
			off := rng.Int63n(cfg.FileBytes/rec) * rec
			if _, _, err := m.Read(ctx, f, off, rec); err != nil {
				return err
			}
			if err := m.Write(ctx, f, off, payload.Synthetic(rec)); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Clients:      clients,
		Bytes:        int64(cfg.Transactions) * int64(clients) * rec * 2,
		Elapsed:      elapsed,
		Transactions: cfg.Transactions * clients,
	}, nil
}

// PostmarkConfig parameterizes the small-file benchmark (§6.4.2): 2 000
// transactions over 100 files (1-500 KB) in 10 directories, 512-byte reads
// and appends, data stable before close.
type PostmarkConfig struct {
	Files        int
	Dirs         int
	Transactions int // per client
	MinSize      int64
	MaxSize      int64
	Seed         int64
}

// Postmark runs the benchmark and reports transactions per second.
func Postmark(cl *cluster.Cluster, cfg PostmarkConfig) (Result, error) {
	if cfg.Files <= 0 {
		cfg.Files = 100
	}
	if cfg.Dirs <= 0 {
		cfg.Dirs = 10
	}
	if cfg.Transactions <= 0 {
		cfg.Transactions = 2000
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 1 << 10
	}
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 500 << 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 13
	}
	clients := len(cl.Mounts())

	// Setup: per-client directory trees and initial file sets.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		root := fmt.Sprintf("/pm%d", i)
		if err := m.Mkdir(ctx, root); err != nil {
			return err
		}
		for d := 0; d < cfg.Dirs; d++ {
			if err := m.Mkdir(ctx, fmt.Sprintf("%s/d%d", root, d)); err != nil {
				return err
			}
		}
		for n := 0; n < cfg.Files; n++ {
			path := fmt.Sprintf("%s/d%d/f%d", root, n%cfg.Dirs, n)
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			size := cfg.MinSize + rng.Int63n(cfg.MaxSize-cfg.MinSize)
			if err := m.Write(ctx, f, 0, payload.Synthetic(size)); err != nil {
				return err
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return Result{}, fmt.Errorf("postmark setup: %w", err)
	}

	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))
		root := fmt.Sprintf("/pm%d", i)
		live := make([]int, cfg.Files)
		sizes := make(map[int]int64, cfg.Files)
		for n := range live {
			live[n] = n
			sizes[n] = cfg.MinSize // conservative; reads clamp server-side
		}
		next := cfg.Files
		pathOf := func(n int) string {
			return fmt.Sprintf("%s/d%d/f%d", root, n%cfg.Dirs, n)
		}
		for t := 0; t < cfg.Transactions; t++ {
			// Half A: create or delete.
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := next
				next++
				f, err := m.Create(ctx, pathOf(n))
				if err != nil {
					return err
				}
				size := cfg.MinSize + rng.Int63n(cfg.MaxSize-cfg.MinSize)
				if err := m.Write(ctx, f, 0, payload.Synthetic(size)); err != nil {
					return err
				}
				// Postmark sends data to stable storage before close.
				if err := m.Fsync(ctx, f); err != nil {
					return err
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
				live = append(live, n)
				sizes[n] = size
			} else {
				k := rng.Intn(len(live))
				n := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(sizes, n)
				if err := m.Remove(ctx, pathOf(n)); err != nil {
					return err
				}
			}
			if len(live) == 0 {
				continue
			}
			// Half B: read or append 512 bytes; stable before close.
			n := live[rng.Intn(len(live))]
			f, err := m.Open(ctx, pathOf(n))
			if err != nil {
				return err
			}
			if rng.Intn(2) == 0 {
				if _, _, err := m.Read(ctx, f, 0, 512); err != nil {
					return err
				}
			} else {
				if err := m.Write(ctx, f, sizes[n], payload.Synthetic(512)); err != nil {
					return err
				}
				sizes[n] += 512
				if err := m.Fsync(ctx, f); err != nil {
					return err
				}
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, fmt.Errorf("postmark: %w", err)
	}
	return Result{
		Clients:      clients,
		Elapsed:      elapsed,
		Transactions: cfg.Transactions * clients,
	}, nil
}

// SSHBuildResult reports the three phases of the build benchmark (§6.4.3).
type SSHBuildResult struct {
	Uncompress time.Duration // file creation dominated
	Configure  time.Duration // creates + attribute updates
	Build      time.Duration // small reads and writes
}

// SSHBuild reproduces the OpenSSH build benchmark's phase structure: an
// unpack phase creating ~400 source files, a configure phase of small
// probe files and attribute checks, and a compile phase reading sources and
// writing objects.
func SSHBuild(cl *cluster.Cluster, seed int64) (SSHBuildResult, error) {
	if seed == 0 {
		seed = 3
	}
	const nSrc = 400
	var out SSHBuildResult

	// Uncompress: create the tree.
	d, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		rng := rand.New(rand.NewSource(seed))
		if err := m.Mkdir(ctx, "/ssh"); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := m.Mkdir(ctx, fmt.Sprintf("/ssh/dir%d", i)); err != nil {
				return err
			}
		}
		for i := 0; i < nSrc; i++ {
			f, err := m.Create(ctx, fmt.Sprintf("/ssh/dir%d/src%d.c", i%8, i))
			if err != nil {
				return err
			}
			size := 2<<10 + rng.Int63n(40<<10)
			if err := m.Write(ctx, f, 0, payload.Synthetic(size)); err != nil {
				return err
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("uncompress: %w", err)
	}
	out.Uncompress = d

	// Configure: many tiny probe files created, checked, and removed.
	d, err = cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		for i := 0; i < 200; i++ {
			path := fmt.Sprintf("/ssh/conftest%d", i)
			f, err := m.Create(ctx, path)
			if err != nil {
				return err
			}
			if err := m.Write(ctx, f, 0, payload.Synthetic(200)); err != nil {
				return err
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
			if _, err := m.Stat(ctx, f); err != nil {
				return err
			}
			if err := m.Remove(ctx, path); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("configure: %w", err)
	}
	out.Configure = d

	// Build: read each source (small sequential reads), write an object.
	d, err = cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < nSrc; i++ {
			src, err := m.Open(ctx, fmt.Sprintf("/ssh/dir%d/src%d.c", i%8, i))
			if err != nil {
				return err
			}
			size, err := m.Size(ctx, src)
			if err != nil {
				return err
			}
			for off := int64(0); off < size; off += 4 << 10 {
				n := int64(4 << 10)
				if off+n > size {
					n = size - off
				}
				if _, _, err := m.Read(ctx, src, off, n); err != nil {
					return err
				}
			}
			obj, err := m.Create(ctx, fmt.Sprintf("/ssh/dir%d/src%d.o", i%8, i))
			if err != nil {
				return err
			}
			if err := m.Write(ctx, obj, 0, payload.Synthetic(1<<10+rng.Int63n(20<<10))); err != nil {
				return err
			}
			if err := m.Close(ctx, obj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, fmt.Errorf("build: %w", err)
	}
	out.Build = d
	return out, nil
}
