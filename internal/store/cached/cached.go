// Package cached holds one function, New, which the wall-clock benchmark's
// per-layer probes (perf/probes.go) import.  It builds a plain wal store,
// so those probes time wal.  The package goes with the next change to the
// benchmark.
package cached

import "dpnfs/internal/store/wal"

// New returns wal.New(cfg).
func New(cfg wal.Config) *wal.Store { return wal.New(cfg) }
