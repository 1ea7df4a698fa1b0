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
// A pass is a sequential loop on the caller's flow — on the cluster, the
// run's scrub lane — that verifies one chunk at a time and sleeps off each
// chunk at rateBPS.  The sleep is a model charge (rpc.Ctx.Sleep): it costs
// virtual time on the simulated fabric and nothing over TCP, where a pass
// runs unthrottled.  A pass reports through its error and the per-node
// scrub_{extents,errors_found,repaired}_total counters; it keeps no log.
package scrub

import (
	"errors"
	"fmt"

	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
)

// Source is the slice of a store the scrubber needs: deterministic
// namespace enumeration, materialized-extent maps, verified reads, the
// writes that repair, and the sync that makes repairs durable.  Both
// shipped backends satisfy it (store/mem natively, store/wal by forwarding
// to its materialized image).
type Source interface {
	Walk(fn func(dir store.FileID, name string, at store.Attr) error) error
	Extents(id store.FileID) ([]mem.Extent, error)
	ReadAt(id store.FileID, off int64, b []byte) (int, error)
	WriteAt(id store.FileID, off int64, b []byte) (int64, error)
	store.Syncer
}

// Fetch reads good bytes for the object name at off from a replica of this
// node's store, filling b and returning the byte count.  Replicas hold
// byte-identical stripe objects at identical offsets (stripe.Replicated)
// under the same name (the cluster's storage daemons name each object after
// its datafile handle), so both are the same everywhere; a store's FileIDs
// are not, each store allocating its own.  A Fetch error means no live
// replica could supply the range; the chunk stays corrupt and is retried on
// the next pass.
type Fetch func(ctx *rpc.Ctx, name string, off int64, b []byte) (int, error)

// chunkSize is the scan granularity: one store chunk, so each verification
// read maps onto exactly one block checksum.
const chunkSize = store.ChunkSize

// rateBPS bounds a simulated pass's verified bytes per virtual second, so
// the integrity figure's phase-3 foreground impact is a fixed trade-off
// rather than an unthrottled scan.
const rateBPS = 64 << 20

// Config wires a Scrubber to one node's store.
type Config struct {
	// Node names the scanned node (metric label).
	Node string
	// Store is the node's content store.
	Store Source
	// Fetch supplies replica bytes for repair; nil makes the scrubber
	// detect-only (unreplicated aggregations have nowhere to repair from).
	Fetch Fetch
	// Metrics is the shared observability registry; nil discards.
	Metrics *metrics.Registry
}

// Scrubber scans one node's store.  Pass is not safe for concurrent calls
// on the same Scrubber (the scratch buffers are shared); run passes
// sequentially, as the cluster driver does.
type Scrubber struct {
	cfg Config

	scanned  *metrics.Counter
	found    *metrics.Counter
	repaired *metrics.Counter

	scratch []byte
	good    []byte
}

// New returns a scrubber over cfg with defaults applied.
func New(cfg Config) *Scrubber {
	name := cfg.Node
	if name == "" {
		name = "scrub"
	}
	return &Scrubber{
		cfg: cfg,
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

// file is one regular file of the scanned store: its FileID, and the name
// the walk found it under, which Fetch takes.
type file struct {
	id   store.FileID
	name string
}

// files enumerates every regular file in deterministic Walk order.
func (s *Scrubber) files() ([]file, error) {
	var files []file
	err := s.cfg.Store.Walk(func(_ store.FileID, name string, at store.Attr) error {
		if !at.IsDir {
			files = append(files, file{at.ID, name})
		}
		return nil
	})
	return files, err
}

// Pass scans every materialized chunk of every file once, repairing what it
// can, and counts what it scanned, found and repaired in the scrub_*_total
// counters.  The walk order, chunking, and pacing are all deterministic, so
// a pass is reproducible under seed replay.  Errors other than checksum
// failures (a crashed store, a failed walk) abort the pass; checksum
// failures never do — finding them is the job.  A file removed and
// reclaimed since the walk (store.Reclaimer) has nothing left to scan.
func (s *Scrubber) Pass(ctx *rpc.Ctx) error {
	files, err := s.files()
	if err != nil {
		return fmt.Errorf("scrub %s: walk: %w", s.cfg.Node, err)
	}
	repaired := false
	for _, f := range files {
		exts, err := s.cfg.Store.Extents(f.id)
		if errors.Is(err, store.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("scrub %s: extents of %s: %w", s.cfg.Node, f.name, err)
		}
		for _, e := range exts {
			for off, end := e.Off, e.Off+e.Len; off < end; {
				// One chunk per read, so each maps onto one block checksum.
				n := min(chunkSize-off%chunkSize, end-off)
				fixed, err := s.scanChunk(ctx, f, off, n)
				if err != nil {
					return fmt.Errorf("scrub %s: %s: %w", s.cfg.Node, f.name, err)
				}
				repaired = repaired || fixed
				off += n
			}
		}
	}
	if repaired {
		// Repairs went through WriteAt; journaling backends stage them like
		// any other write, so make them durable before reporting success.
		if err := s.cfg.Store.Sync(ctx.P); err != nil {
			return fmt.Errorf("scrub %s: sync repairs: %w", s.cfg.Node, err)
		}
	}
	return nil
}

// scanChunk verifies the n bytes at off, one chunk, and repairs them if
// corrupt and repairable; it reports whether it repaired them.
func (s *Scrubber) scanChunk(ctx *rpc.Ctx, f file, off, n int64) (bool, error) {
	if int64(cap(s.scratch)) < n {
		s.scratch = make([]byte, n)
	}
	buf := s.scratch[:n]
	s.scanned.Inc()
	_, err := s.cfg.Store.ReadAt(f.id, off, buf)
	// The sleep is the entire cost model: checksum verification itself is
	// free in virtual time.
	ctx.Sleep(sim.Duration(float64(n) / rateBPS * 1e9))
	if err == nil || errors.Is(err, store.ErrNotExist) {
		return false, nil
	}
	if !errors.Is(err, store.ErrCorrupt) {
		return false, err
	}
	s.found.Inc()
	return s.repair(ctx, f, off, n), nil
}

// repair rewrites one corrupt chunk from a replica, best-effort: any
// failure leaves the chunk for the next pass (or for a foreground
// read-repair) rather than failing the scan.  It reports whether the chunk
// now reads clean.
func (s *Scrubber) repair(ctx *rpc.Ctx, f file, off, n int64) bool {
	if s.cfg.Fetch == nil {
		return false
	}
	if int64(cap(s.good)) < n {
		s.good = make([]byte, n)
	}
	buf := s.good[:n]
	if got, err := s.cfg.Fetch(ctx, f.name, off, buf); err != nil || int64(got) < n {
		return false
	}
	if _, err := s.cfg.Store.WriteAt(f.id, off, buf); err != nil {
		return false
	}
	// The write resealed the block checksum over the replica's bytes;
	// re-read so "repaired" means verified clean, not merely rewritten.
	if _, err := s.cfg.Store.ReadAt(f.id, off, s.scratch[:n]); err != nil {
		return false
	}
	s.repaired.Inc()
	return true
}
