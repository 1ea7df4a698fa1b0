package workload

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// IntegrityConfig parameterizes the integrity experiment: clients stream
// verified reads over a pre-written corpus while a rot plan corrupts store
// chunks mid-run and a background scrub pass, scheduled at ScrubAt, cleans
// up after them.  RotAt must match the rot plan's times — the bench layer
// builds both from one schedule.
type IntegrityConfig struct {
	FileSize int64         // per-client corpus (default 4 MB)
	Block    int64         // per-read block (default 256 KB)
	RotAt    time.Duration // when the plan's bit rot lands
	ScrubAt  time.Duration // when the scheduled scrub pass starts
	Deadline time.Duration // total measured-run length
}

// IntegrityResult is per-window aggregate read throughput.
type IntegrityResult struct {
	Before float64 // MB/s in [0, RotAt): clean baseline
	During float64 // MB/s in [RotAt, ScrubAt): rot present, read-repair engaged
	After  float64 // MB/s in [ScrubAt, end): background scrub running
}

// integrityPattern is client i's deterministic corpus, regenerated on the
// verify side so a corrupt byte can never masquerade as the expected one.
func integrityPattern(i int, n int64) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(j*131 + i*29 + 7)
	}
	return b
}

// Integrity runs the experiment.  It requires the simulated transport: the
// windows are virtual-time intervals, which is also what makes the result
// exactly reproducible for a given (seed, plan).
//
// Every client writes its pattern file before anything is scheduled; rot
// and the scrub pass are then scheduled for the measured run, in which
// every client loops sequential Block-sized reads over its file — dropping
// caches at the top of each pass so every pass exercises the stores — and
// compares every byte against the regenerated pattern.  A single
// mismatched byte fails the run: silent corruption cannot hide in the
// throughput numbers.  Completion times bucket the verified bytes into the
// three windows.
func Integrity(cl *cluster.Cluster, cfg IntegrityConfig, rot *faults.Plan) (IntegrityResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return IntegrityResult{}, fmt.Errorf("workload: the integrity experiment requires the sim transport")
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 4 << 20
	}
	if cfg.Block <= 0 {
		cfg.Block = 256 << 10
	}
	if cfg.RotAt <= 0 {
		cfg.RotAt = 200 * time.Millisecond
	}
	if cfg.ScrubAt <= cfg.RotAt {
		cfg.ScrubAt = cfg.RotAt + 200*time.Millisecond
	}
	if cfg.Deadline <= cfg.ScrubAt {
		cfg.Deadline = cfg.ScrubAt + 200*time.Millisecond
	}

	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/integrity.%d", i))
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, payload.Real(integrityPattern(i, cfg.FileSize))); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return IntegrityResult{}, fmt.Errorf("integrity setup: %w", err)
	}
	if err := cl.Schedule(rot); err != nil {
		return IntegrityResult{}, err
	}
	if err := cl.Schedule(faults.NewPlan(rot.Seed, faults.Scrub{At: cfg.ScrubAt})); err != nil {
		return IntegrityResult{}, err
	}

	var mu sync.Mutex
	var window [3]int64 // verified bytes per window
	start := cl.Now()
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		want := integrityPattern(i, cfg.FileSize)
		for time.Duration(ctx.Now())-start < cfg.Deadline {
			// Open cold each pass: page caches shared with an open file
			// survive DropCaches, and a warm pass would never touch the
			// stores — or the rot.
			m.DropCaches()
			f, err := m.Open(ctx, fmt.Sprintf("/integrity.%d", i))
			if err != nil {
				return err
			}
			for off := int64(0); off < cfg.FileSize; off += cfg.Block {
				n := cfg.Block
				if rest := cfg.FileSize - off; n > rest {
					n = rest
				}
				got, rn, err := m.Read(ctx, f, off, n)
				if err != nil {
					return fmt.Errorf("client %d read at %d: %w", i, off, err)
				}
				if rn != n {
					return fmt.Errorf("client %d read at %d: got %d bytes, want %d", i, off, rn, n)
				}
				if !bytes.Equal(got.Bytes, want[off:off+n]) {
					return fmt.Errorf("client %d: corrupt bytes delivered at offset %d", i, off)
				}
				at := time.Duration(ctx.Now()) - start
				w := 0
				switch {
				case at >= cfg.ScrubAt:
					w = 2
				case at >= cfg.RotAt:
					w = 1
				}
				mu.Lock()
				window[w] += n
				mu.Unlock()
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return IntegrityResult{}, fmt.Errorf("integrity run: %w", err)
	}
	afterDur := elapsed - cfg.ScrubAt
	if afterDur <= 0 {
		afterDur = cfg.Deadline - cfg.ScrubAt
	}
	mbs := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / d.Seconds()
	}
	return IntegrityResult{
		Before: mbs(window[0], cfg.RotAt),
		During: mbs(window[1], cfg.ScrubAt-cfg.RotAt),
		After:  mbs(window[2], afterDur),
	}, nil
}
