package nfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dpnfs/internal/metrics"
)

// Metrics is a mount's per-operation view over the shared metrics registry
// (package metrics): the nfsstat/mountstats table, backed by the same
// instruments the /metrics endpoint and bench reports export —
// nfs_client_ops_total, nfs_client_op_errors_total, nfs_client_op_bytes_total,
// and the nfs_client_op_seconds histogram, all labeled by RFC 5661 op name.
type Metrics struct {
	ops   *metrics.CounterVec
	errs  *metrics.CounterVec
	bytes *metrics.CounterVec
	lat   *metrics.HistogramVec

	mu    sync.Mutex
	perOp map[uint32]*OpMetrics
}

// OpMetrics bundles one operation's resolved instruments.  Recording is
// pure atomics; the accessor methods serve the mountstats-style table and
// tests.
type OpMetrics struct {
	ops   *metrics.Counter
	errs  *metrics.Counter
	bytes *metrics.Counter
	lat   *metrics.Histogram
}

// newMetrics resolves the mount's instrument families.  reg may be nil
// (instruments still record, into a discard registry).
func newMetrics(reg *metrics.Registry) *Metrics {
	reg = orPrivate(reg)
	return &Metrics{
		ops: reg.CounterVec("nfs_client_ops_total",
			"NFSv4.1 operations issued by the mount, by RFC 5661 op name.", "op"),
		errs: reg.CounterVec("nfs_client_op_errors_total",
			"NFSv4.1 operations whose compound failed.", "op"),
		bytes: reg.CounterVec("nfs_client_op_bytes_total",
			"Payload bytes moved by READ/WRITE operations.", "op"),
		lat: reg.HistogramVec("nfs_client_op_seconds",
			"Compound round-trip latency attributed to each operation.",
			metrics.DurationBuckets, "op"),
		perOp: make(map[uint32]*OpMetrics),
	}
}

// orPrivate substitutes a fresh private registry for nil, so a bare
// nfs.NewClient still gets a working mountstats table.
func orPrivate(reg *metrics.Registry) *metrics.Registry {
	if reg == nil {
		return metrics.NewRegistry()
	}
	return reg
}

// Op returns the metrics for an operation number (nil if never issued).
func (m *Metrics) Op(num uint32) *OpMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perOp[num]
}

// op returns (creating on first use) the instrument bundle for num.
func (m *Metrics) op(num uint32) *OpMetrics {
	m.mu.Lock()
	om := m.perOp[num]
	if om == nil {
		name := opName(num)
		om = &OpMetrics{
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

func (m *Metrics) record(num uint32, d time.Duration, bytes int64, err error) {
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

// Count returns how many times the operation was issued.
func (m *OpMetrics) Count() uint64 { return m.ops.Value() }

// Errors returns how many compounds carrying the operation failed.
func (m *OpMetrics) Errors() uint64 { return m.errs.Value() }

// Bytes returns the payload bytes moved (READ/WRITE only).
func (m *OpMetrics) Bytes() int64 { return int64(m.bytes.Value()) }

// Total returns the summed round-trip latency.
func (m *OpMetrics) Total() time.Duration {
	return time.Duration(m.lat.Sum() * float64(time.Second))
}

// Mean returns the average round-trip latency.
func (m *OpMetrics) Mean() time.Duration {
	return time.Duration(m.lat.Mean() * float64(time.Second))
}

// Max returns the largest round-trip latency.
func (m *OpMetrics) Max() time.Duration {
	return time.Duration(m.lat.Max() * float64(time.Second))
}

// Percentile returns an upper bound for the p-th latency percentile from
// the histogram (p in [0,100]).
func (m *OpMetrics) Percentile(p float64) time.Duration {
	return time.Duration(m.lat.Quantile(p/100) * float64(time.Second))
}

// String renders a mountstats-style table sorted by total time.
func (m *Metrics) String() string {
	type row struct {
		num uint32
		om  *OpMetrics
	}
	m.mu.Lock()
	rows := make([]row, 0, len(m.perOp))
	for num, om := range m.perOp {
		rows = append(rows, row{num, om})
	}
	m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].om.Total() > rows[j].om.Total() })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %7s %12s %10s %10s %10s\n",
		"op", "count", "errors", "bytes", "mean", "p95", "max")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %8d %7d %12d %10v %10v %10v\n",
			opName(r.num), r.om.Count(), r.om.Errors(), r.om.Bytes(),
			r.om.Mean().Round(time.Microsecond),
			r.om.Percentile(95).Round(time.Microsecond),
			r.om.Max().Round(time.Microsecond))
	}
	return sb.String()
}
