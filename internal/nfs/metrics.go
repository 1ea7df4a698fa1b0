package nfs

import (
	"sync"
	"time"

	"dpnfs/internal/metrics"
)

// opStats records a mount's operations into the shared metrics registry
// (package metrics), the instruments the /metrics endpoint and bench
// reports export — nfs_client_ops_total, nfs_client_op_errors_total,
// nfs_client_op_bytes_total, and the nfs_client_op_seconds histogram, all
// labeled by RFC 5661 op name.
type opStats struct {
	ops   *metrics.CounterVec
	errs  *metrics.CounterVec
	bytes *metrics.CounterVec
	lat   *metrics.HistogramVec

	// perOp resolves each operation's series on its first use, so a
	// snapshot lists the series in the order the mount first issued them.
	mu    sync.Mutex
	perOp map[uint32]*opSeries
}

// opSeries bundles one operation's resolved instruments; recording is pure
// atomics.
type opSeries struct {
	ops   *metrics.Counter
	errs  *metrics.Counter
	bytes *metrics.Counter
	lat   *metrics.Histogram
}

// newOpStats resolves the mount's instrument families on reg.
func newOpStats(reg *metrics.Registry) *opStats {
	return &opStats{
		ops: reg.CounterVec("nfs_client_ops_total",
			"NFSv4.1 operations issued by the mount, by RFC 5661 op name.", "op"),
		errs: reg.CounterVec("nfs_client_op_errors_total",
			"NFSv4.1 operations whose compound failed.", "op"),
		bytes: reg.CounterVec("nfs_client_op_bytes_total",
			"Payload bytes moved by READ/WRITE operations.", "op"),
		lat: reg.HistogramVec("nfs_client_op_seconds",
			"Compound round-trip latency attributed to each operation.",
			metrics.DurationBuckets, "op"),
		perOp: make(map[uint32]*opSeries),
	}
}

// orPrivate substitutes a fresh private registry for nil, so a bare
// nfs.NewClient still records into working instruments.
func orPrivate(reg *metrics.Registry) *metrics.Registry {
	if reg == nil {
		return metrics.NewRegistry()
	}
	return reg
}

// op returns (creating on first use) the instrument bundle for num.
func (m *opStats) op(num uint32) *opSeries {
	m.mu.Lock()
	om := m.perOp[num]
	if om == nil {
		name := opName(num)
		om = &opSeries{
			ops:   m.ops.With(name),
			errs:  m.errs.With(name),
			bytes: m.bytes.With(name),
			lat:   m.lat.With(name),
		}
		m.perOp[num] = om
	}
	m.mu.Unlock()
	return om
}

func (m *opStats) record(num uint32, d time.Duration, bytes int64, err error) {
	om := m.op(num)
	om.ops.Inc()
	om.lat.ObserveDuration(d)
	if err != nil {
		om.errs.Inc()
	}
	if bytes > 0 {
		om.bytes.Add(uint64(bytes))
	}
}
