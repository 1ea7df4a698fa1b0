// Package scrub implements the background data-integrity scanner: it walks
// one node's store, re-reads every materialized extent so the per-chunk
// block checksums are verified (store/mem "Block checksums",
// docs/BACKENDS.md), and rewrites corrupt extents with good bytes fetched
// from a replica when the cluster runs a replicated aggregation.
//
// Latent corruption — bit rot that lands on a block nobody is currently
// reading — is invisible to the foreground integrity machinery until an
// application read trips over it, possibly after the last good replica has
// also rotted.  The scrubber bounds that exposure window: every pass visits
// every chunk, so rot is found and repaired at scrub cadence rather than at
// application-read cadence.
//
// Scan I/O is deliberately second-class: each chunk verification runs
// through a private I/O engine under ioengine.Background, and the pass is
// paced to Config.RateBPS of verified bytes per (virtual) second, so a
// scrub never competes with foreground traffic for more than the background
// share of anything.
package scrub

import (
	"errors"
	"fmt"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/stripe"
)

// Source is the slice of a store the scrubber needs: deterministic
// namespace enumeration, materialized-extent maps, and verified reads.
// All three shipped backends satisfy it (store/mem natively, store/wal and
// store/cached by forwarding to their materialized image).
type Source interface {
	Walk(fn func(dir store.FileID, name string, at store.Attr) error) error
	Extents(id store.FileID) ([]mem.Extent, error)
	ReadAt(id store.FileID, off int64, b []byte) (int, error)
	WriteAt(id store.FileID, off int64, b []byte) (int64, error)
}

// Fetch reads good bytes for (id, off) from a replica of this node's
// store, filling b and returning the byte count.  Replicas hold
// byte-identical stripe objects at identical offsets (stripe.Replicated),
// so the same id/off addresses the same logical bytes everywhere.  A Fetch
// error means no live replica could supply the range; the chunk stays
// corrupt and is retried on the next pass.
type Fetch func(ctx *rpc.Ctx, id store.FileID, off int64, b []byte) (int, error)

// DefaultChunk is the scan granularity: one store chunk, so each
// verification read maps onto exactly one block checksum.
const DefaultChunk = 64 << 10

// Config wires a Scrubber to one node's store.
type Config struct {
	// Node names the scanned node (metric label, engine name prefix).
	Node string
	// Store is the node's content store.
	Store Source
	// Fetch supplies replica bytes for repair; nil makes the scrubber
	// detect-only (unreplicated aggregations have nowhere to repair from).
	Fetch Fetch
	// ChunkSize is the scan read size (0 = DefaultChunk).
	ChunkSize int64
	// RateBPS bounds verified bytes per virtual second (0 = unpaced).
	// Pacing needs a simulation clock; over real transports the engine's
	// background share is the only throttle.
	RateBPS int64
	// Metrics is the shared observability registry; nil discards.
	Metrics *metrics.Registry
}

// Result summarizes one pass.
type Result struct {
	Extents  int // chunks whose checksums were verified
	Found    int // chunks that failed verification
	Repaired int // chunks rewritten from a replica and re-verified clean
}

// Scrubber scans one node's store.  Pass is not safe for concurrent calls
// on the same Scrubber (the scratch buffers are shared); run passes
// sequentially, as the cluster driver does.
type Scrubber struct {
	cfg    Config
	engine *ioengine.Engine

	scanned  *metrics.Counter
	found    *metrics.Counter
	repaired *metrics.Counter

	scratch []byte
	good    []byte
}

// New returns a scrubber over cfg with defaults applied.
func New(cfg Config) *Scrubber {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunk
	}
	name := cfg.Node
	if name == "" {
		name = "scrub"
	}
	return &Scrubber{
		cfg: cfg,
		// MaxFlight 1: the scan is sequential by design — pacing a sliding
		// window would let a burst of chunk reads land ahead of the sleep.
		engine: ioengine.New(ioengine.Config{
			Name: name + "/scrub", Issuer: "scrub", MaxFlight: 1,
			Metrics: cfg.Metrics,
		}),
		scanned: cfg.Metrics.CounterVec("scrub_extents_total",
			"Extent chunks whose block checksums the scrubber verified, by node.",
			"node").With(name),
		found: cfg.Metrics.CounterVec("scrub_errors_found_total",
			"Chunks that failed checksum verification during a scrub pass, by node.",
			"node").With(name),
		repaired: cfg.Metrics.CounterVec("scrub_repaired_total",
			"Corrupt chunks rewritten from a replica and re-verified clean, by node.",
			"node").With(name),
	}
}

// Node reports which node's store this scrubber scans.
func (s *Scrubber) Node() string { return s.cfg.Node }

// files enumerates every regular file in deterministic Walk order.
func (s *Scrubber) files() ([]store.FileID, error) {
	var ids []store.FileID
	err := s.cfg.Store.Walk(func(_ store.FileID, _ string, at store.Attr) error {
		if !at.IsDir {
			ids = append(ids, at.ID)
		}
		return nil
	})
	return ids, err
}

// Pass scans every materialized chunk of every file once, repairing what it
// can.  The walk order, chunking, and pacing are all deterministic, so a
// pass is reproducible under seed replay.  Errors other than checksum
// failures (a crashed store, a failed walk) abort the pass; checksum
// failures never do — finding them is the job.
func (s *Scrubber) Pass(ctx *rpc.Ctx) (Result, error) {
	ids, err := s.files()
	if err != nil {
		return Result{}, fmt.Errorf("scrub %s: walk: %w", s.cfg.Node, err)
	}
	var res Result
	for _, id := range ids {
		exts, err := s.cfg.Store.Extents(id)
		if err != nil {
			return res, fmt.Errorf("scrub %s: extents of file %d: %w", s.cfg.Node, id, err)
		}
		reqs := s.chunked(exts)
		if len(reqs) == 0 {
			continue
		}
		id := id
		err = s.engine.RunWith(ctx, ioengine.RunOpts{Class: ioengine.Background}, reqs,
			func(ctx *rpc.Ctx, r stripe.Extent) error {
				return s.scanChunk(ctx, id, r, &res)
			})
		if err != nil {
			return res, fmt.Errorf("scrub %s: file %d: %w", s.cfg.Node, id, err)
		}
	}
	if res.Repaired > 0 {
		// Repairs went through WriteAt; journaling backends stage them like
		// any other write, so make them durable before reporting success.
		if sy, ok := s.cfg.Store.(store.Syncer); ok {
			if err := sy.Sync(ctx.P); err != nil {
				return res, fmt.Errorf("scrub %s: sync repairs: %w", s.cfg.Node, err)
			}
		}
	}
	return res, nil
}

// chunked splits a file's materialized extents into ChunkSize-aligned scan
// requests (Dev is unused; the scrubber owns exactly one store).
func (s *Scrubber) chunked(exts []mem.Extent) []stripe.Extent {
	var reqs []stripe.Extent
	for _, e := range exts {
		for off, end := e.Off, e.Off+e.Len; off < end; {
			n := s.cfg.ChunkSize - off%s.cfg.ChunkSize
			if off+n > end {
				n = end - off
			}
			reqs = append(reqs, stripe.Extent{Off: off, Len: n})
			off += n
		}
	}
	return reqs
}

// scanChunk verifies one chunk and repairs it if corrupt and repairable.
func (s *Scrubber) scanChunk(ctx *rpc.Ctx, id store.FileID, r stripe.Extent, res *Result) error {
	if int64(cap(s.scratch)) < r.Len {
		s.scratch = make([]byte, r.Len)
	}
	buf := s.scratch[:r.Len]
	res.Extents++
	s.scanned.Inc()
	_, err := s.cfg.Store.ReadAt(id, r.Off, buf)
	s.pace(ctx, r.Len)
	if err == nil {
		return nil
	}
	if !errors.Is(err, store.ErrCorrupt) {
		return err
	}
	res.Found++
	s.found.Inc()
	s.repair(ctx, id, r, res)
	return nil
}

// repair rewrites one corrupt chunk from a replica, best-effort: any
// failure leaves the chunk for the next pass (or for a foreground
// read-repair) rather than failing the scan.
func (s *Scrubber) repair(ctx *rpc.Ctx, id store.FileID, r stripe.Extent, res *Result) {
	if s.cfg.Fetch == nil {
		return
	}
	if int64(cap(s.good)) < r.Len {
		s.good = make([]byte, r.Len)
	}
	buf := s.good[:r.Len]
	n, err := s.cfg.Fetch(ctx, id, r.Off, buf)
	if err != nil || int64(n) < r.Len {
		return
	}
	if _, err := s.cfg.Store.WriteAt(id, r.Off, buf[:n]); err != nil {
		return
	}
	// The write resealed the block checksum over the replica's bytes;
	// re-read so "repaired" means verified clean, not merely rewritten.
	if _, err := s.cfg.Store.ReadAt(id, r.Off, s.scratch[:r.Len]); err != nil {
		return
	}
	res.Repaired++
	s.repaired.Inc()
}

// pace sleeps off the virtual time the just-verified bytes are worth under
// RateBPS.  Only simulated passes are paced (Ctx.Sleep is a model charge);
// xdr.Checksum verification itself is free in virtual time, so the sleep is
// the entire cost model.
func (s *Scrubber) pace(ctx *rpc.Ctx, n int64) {
	if s.cfg.RateBPS > 0 {
		ctx.Sleep(sim.Duration(float64(n) / float64(s.cfg.RateBPS) * 1e9))
	}
}
