package pvfs

import (
	"fmt"
	"sync/atomic"

	"dpnfs/internal/metrics"
)

// ProcName renders a PVFS2 procedure number as a stable metric label.
func ProcName(proc uint32) string {
	if proc < uint32(len(procTable)) && procTable[proc].name != "" {
		return procTable[proc].name
	}
	return fmt.Sprintf("proc-%d", proc)
}

// procCounters is a request-counter family partitioned by procedure.  A
// child is resolved on the procedure's first request, not at construction:
// snapshots list series in creation order and omit procedures never seen.
// After that a request costs one atomic load and one add.
type procCounters struct {
	vec   *metrics.CounterVec
	cache [len(procTable)]atomic.Pointer[metrics.Counter] // by procedure number
}

// inc counts one request for proc.
func (c *procCounters) inc(proc uint32) {
	if proc >= uint32(len(c.cache)) {
		c.vec.With(ProcName(proc)).Inc()
		return
	}
	ctr := c.cache[proc].Load()
	if ctr == nil {
		ctr = c.vec.With(ProcName(proc))
		c.cache[proc].Store(ctr)
	}
	ctr.Inc()
}

// storageStats bundles one storage daemon's instruments.
type storageStats struct {
	requests   procCounters
	bytesRead  *metrics.Counter
	bytesWrite *metrics.Counter
	buffers    *metrics.Gauge
	bufWait    *metrics.Histogram
}

// newStorageStats resolves the daemon's instruments; reg may be nil.
func newStorageStats(reg *metrics.Registry) *storageStats {
	return &storageStats{
		requests: procCounters{vec: reg.CounterVec("pvfs_storage_requests_total",
			"Storage-daemon requests, by procedure.", "proc")},
		bytesRead: reg.Counter("pvfs_storage_bytes_read_total",
			"Datafile bytes served by io-read (storage-daemon read throughput)."),
		bytesWrite: reg.Counter("pvfs_storage_bytes_written_total",
			"Datafile bytes accepted by io-write (storage-daemon write throughput)."),
		buffers: reg.Gauge("pvfs_storage_buffer_slots_in_use",
			"Transfer-buffer pool slots currently held (paper §5 fixed pool)."),
		bufWait: reg.Histogram("pvfs_storage_buffer_wait_seconds",
			"Time spent waiting for transfer-buffer slots.", metrics.DurationBuckets),
	}
}

// metaStats bundles the metadata server's instruments.
type metaStats struct {
	requests  procCounters
	ioRetries *metrics.Counter
}

func newMetaStats(reg *metrics.Registry) *metaStats {
	return &metaStats{
		requests: procCounters{vec: reg.CounterVec("pvfs_meta_requests_total",
			"Metadata-server requests, by procedure.", "proc")},
		ioRetries: reg.Counter("pvfs_meta_io_retries_total",
			"MDS fan-out calls to storage daemons retried after a retryable transport failure."),
	}
}

// clientStats bundles the client library's instruments: request fan-out and
// bytes moved, the raw material for the paper's small-I/O analysis (§6.4.1:
// cacheless clients pass every application request straight through).
type clientStats struct {
	ioRequests   *metrics.Counter
	ioRetries    *metrics.Counter
	bytesRead    *metrics.Counter
	bytesWrite   *metrics.Counter
	corruptReads *metrics.Counter
	readRepairs  *metrics.Counter
}

func newClientStats(reg *metrics.Registry) *clientStats {
	return &clientStats{
		ioRequests: reg.Counter("pvfs_client_io_requests_total",
			"Storage-daemon I/O requests issued (after MaxTransfer splitting)."),
		ioRetries: reg.Counter("pvfs_client_io_retries_total",
			"Storage-daemon calls retried after a retryable transport failure (crashed node)."),
		bytesRead: reg.Counter("pvfs_client_bytes_read_total",
			"Logical bytes read by the client library."),
		bytesWrite: reg.Counter("pvfs_client_bytes_written_total",
			"Logical bytes written by the client library."),
		corruptReads: reg.Counter("pvfs_client_corrupt_reads_total",
			"Reads that returned a data-integrity error (block or wire checksum mismatch)."),
		readRepairs: reg.Counter("pvfs_client_read_repairs_total",
			"Corrupt extents rewritten with good bytes fetched from a replica."),
	}
}
