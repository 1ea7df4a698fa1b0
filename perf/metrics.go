package main

import (
	"fmt"
	"math"
	"time"

	"dpnfs/internal/cluster"
)

// metricDef names one metric.  Better is "lower" or "higher"; Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// (per-layer metrics have none).  BENCHMARK.json repeats these tables and
// TestManifestMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the system sees.  Every metric is defined on
// every workload (see README.md for what an "op" is on each).  The bounds
// are all the contract's maximum: ten runs of one commit on this sandbox
// spread by 6-15 % and drift by as much between sets (README.md "Bounds").
var endToEnd = []metricDef{
	{"throughput_mb_s", "MB/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is built in init: the fixed names plus two per architecture.
var perLayer []metricDef

func init() {
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			perLayer = append(perLayer, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Probes: a layer's public API in a tight loop, no cluster.
	add("ns", "lower", "xdr.encode_opaque_2m_ns", "xdr.decode_copy_2m_ns", "xdr.decode_borrow_2m_ns",
		"xdr.encode_small_ns", "xdr.crc32c_64k_ns")
	add("us", "lower", "rpc.tcp_rtt_small_us", "rpc.tcp_read_2m_us", "rpc.tcp_write_2m_us",
		"rpc.tcp_small_cpu_us", "rpc.tcp_read_2m_cpu_us", "rpc.tcp_write_2m_cpu_us")
	add("count", "lower", "rpc.tcp_allocs_per_call")
	add("ns", "lower", "rpc.bufpool_getput_ns", "rpc.sim_call_ns")
	add("ns", "lower", "ioengine.run_ns_per_req")
	add("count", "lower", "ioengine.run_allocs_per_req")
	add("ns", "lower", "stripe.map_32m_ns")
	add("ns", "lower", "store.mem_read_2m_ns", "store.mem_write_2m_ns", "store.wal_write_64k_ns",
		"store.wal_sync_ns", "store.wal_create_remove_ns", "store.cached_write_64k_ns", "store.cached_sync_ns")
	add("1/s", "higher", "sim.kernel_events_per_s")
	add("count", "lower", "sim.kernel_allocs_per_event")

	// Traced run: the cluster's registry over the traced phase.
	add("count", "lower", "rpc.calls_per_op")
	add("ms", "lower", "rpc.client_call_p50_ms", "rpc.server_handle_p50_ms")
	add("ratio", "lower", "rpc.wire_bytes_per_user_byte")
	add("count", "lower", "rpc.retries", "rpc.errors")
	add("count", "lower", "ioengine.requests_per_op")
	add("ms", "lower", "ioengine.slot_wait_p50_ms")
	add("count", "higher", "ioengine.mean_occupancy")
	add("count", "lower", "ioengine.split_total")
	add("count", "higher", "ioengine.coalesced_total")
	add("ms", "lower", "nfs.read_p50_ms", "nfs.write_p50_ms", "nfs.commit_p50_ms", "nfs.open_p50_ms")
	add("ratio", "higher", "nfs.pagecache_hit_ratio", "nfs.layout_cache_hit_ratio")
	add("count", "higher", "nfs.readahead_chunks_per_op")
	add("ms", "lower", "nfs.slot_wait_p50_ms")
	add("count", "lower", "nfs.server_compounds_per_op")
	add("us", "lower", "nfs.warm_read_2m_us")
	add("count", "lower", "pvfs.storage_requests_per_op", "pvfs.meta_requests_per_op")
	add("ms", "lower", "pvfs.storage_buffer_wait_p50_ms")
	// Traced run: the store wrapper.
	add("us", "lower", "store.read_busy_us_per_op", "store.write_busy_us_per_op",
		"store.sync_busy_us_per_op", "store.meta_busy_us_per_op")
	add("count", "lower", "store.calls_per_op", "store.wal_records_per_op")
	add("ratio", "lower", "store.wal_checkpoint_bytes_per_user_byte")
	// Traced run: the simulator (sim_figures only).
	add("1/s", "higher", "sim.events_per_cpu_s")
	add("ratio", "higher", "sim.virt_s_per_cpu_s")
	for _, a := range cluster.Archs {
		add("count", "lower", "sim.events_per_app_call."+string(a))
		add("ns", "lower", "sim.cpu_ns_per_event."+string(a))
	}
	// Traced run: spans around cluster.Mount calls.
	add("ms", "lower", "app.open_p50_ms", "app.read_p50_ms", "app.write_p50_ms", "app.fsync_p50_ms",
		"app.fsync_p99_ms", "app.close_p50_ms", "app.create_p50_ms", "app.stat_p50_ms", "app.remove_p50_ms",
		"app.op_p99_ms")
	add("MB/s", "higher", "app.read_1client_mb_s")
	// Traced run: the Go runtime.
	add("count", "lower", "runtime.allocs_per_op")
	add("KB", "lower", "runtime.alloc_kb_per_op")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_total_ms")
	add("MB", "lower", "runtime.peak_rss_mb")
	// Derived: each layer's share of cpu_us_per_op, and two overheads.
	add("ratio", "lower", "share.xdr", "share.rpc", "share.checksum", "share.ioengine", "share.store",
		"share.unattributed")
	add("%", "lower", "overhead.wire_checksums_cpu_pct", "trace.overhead_pct")
}

// metricVal is one reported value.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// slice is one equal share of a timed phase: half a second of a TCP
// workload, or one pass of sim_figures.  Every end-to-end metric but setup_s
// is computed per slice and reported as the quartile over slices on the
// metric's good side (the third quartile of a rate, the first of a latency
// or a cost); setup_s is the first quartile over the run's set-ups.  The sandbox this runs in loses 5-35 % of its CPU to other
// tenants in bursts of 0.1-1 s, which stretch wall-clock times and never
// shorten them; the good-side quartile reads the slices the bursts missed
// and still leaves a quarter of the slices beyond it.  README.md shows the
// measurements behind the choice.
type slice struct {
	dur   time.Duration
	cpu   time.Duration
	bytes int64
	latMs []float64 // one entry per completed op
}

// sliceView is a slice as written to -out.
type sliceView struct {
	Seconds   float64 `json:"seconds"`
	Ops       int     `json:"ops"`
	OpsPerS   float64 `json:"ops_per_s"`
	MBPerS    float64 `json:"mb_per_s"`
	CPUUsPerO float64 `json:"cpu_us_per_op"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

func (s slice) view() sliceView {
	sec, n := s.dur.Seconds(), float64(len(s.latMs))
	return sliceView{
		Seconds: sec, Ops: len(s.latMs), OpsPerS: n / sec, MBPerS: float64(s.bytes) / 1e6 / sec,
		CPUUsPerO: float64(s.cpu) / 1e3 / n, P50Ms: median(s.latMs),
		P99Ms: percentile(s.latMs, 99),
	}
}

// sliceDur is the length of a TCP workload's slice.
const sliceDur = 500 * time.Millisecond

// fromSlices computes the slice-derived end-to-end metrics (and op_p99_ms,
// which is reported outside them) and the median number of latency samples
// behind a slice's percentiles.
func fromSlices(sl []slice) (m map[string]float64, samplesPerSlice float64) {
	var thr, ops, p50, p99, cpu, n []float64
	for _, s := range sl {
		if len(s.latMs) == 0 || s.dur <= 0 {
			continue
		}
		v := s.view()
		thr = append(thr, v.MBPerS)
		ops = append(ops, v.OpsPerS)
		p50 = append(p50, v.P50Ms)
		p99 = append(p99, v.P99Ms)
		cpu = append(cpu, v.CPUUsPerO)
		n = append(n, float64(v.Ops))
	}
	return map[string]float64{
		"throughput_mb_s": quantile(thr, 0.75),
		"ops_per_s":       quantile(ops, 0.75),
		"op_p50_ms":       quantile(p50, 0.25),
		"op_p99_ms":       quantile(p99, 0.25),
		"cpu_us_per_op":   quantile(cpu, 0.25),
	}, median(n)
}

// cpuSample is the process's CPU time at an instant of a phase.
type cpuSample struct {
	at  time.Duration // since the phase began
	cpu time.Duration
}

// sampleCPU records the process's CPU time every sliceDur until stop is
// closed, then once more, and returns the samples on done.
func sampleCPU(t0 time.Time, every time.Duration, stop <-chan struct{}, done chan<- []cpuSample) {
	out := []cpuSample{{0, rusageCPU()}}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			out = append(out, cpuSample{time.Since(t0), rusageCPU()})
		case <-stop:
			done <- append(out, cpuSample{time.Since(t0), rusageCPU()})
			return
		}
	}
}

// opRec is one completed op.
type opRec struct {
	end   time.Duration // since the phase began
	ms    float64
	bytes int64
}

// cutSlices assigns ops to the intervals between CPU samples.  A final
// interval shorter than half a slice is merged into the one before it.
func cutSlices(samples []cpuSample, every time.Duration, ops []opRec) []slice {
	if n := len(samples); n > 2 && samples[n-1].at-samples[n-2].at < every/2 {
		samples = append(samples[:n-2:n-2], samples[n-1])
	}
	sl := make([]slice, len(samples)-1)
	for i := range sl {
		sl[i].dur = samples[i+1].at - samples[i].at
		sl[i].cpu = samples[i+1].cpu - samples[i].cpu
	}
	for _, op := range ops {
		// Few slices: a linear scan is fine.  An op ending after the last
		// sample (it cannot, the last sample follows the run) lands in the
		// last slice.
		i := 0
		for i < len(sl)-1 && op.end > samples[i+1].at {
			i++
		}
		sl[i].bytes += op.bytes
		sl[i].latMs = append(sl[i].latMs, op.ms)
	}
	return sl
}

// result is one run of one workload, as written to -out.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
	// Extra holds figures worth keeping that are not benchmark metrics:
	// sample counts behind the percentiles, whole-phase percentiles, the
	// cost-share inputs.
	Extra map[string]float64 `json:"extra,omitempty"`
	// SetupS is every set-up's wall time, in order.
	SetupS []float64 `json:"setup_samples_s,omitempty"`
	// Slices is the run's trajectory: every slice's own figures, in order.
	Slices []sliceView `json:"slices,omitempty"`
	// SimStats are sim_figures' simulated statistics.  They are properties
	// of the modelled system, not of the host: a change that only speeds
	// the simulator must leave every one of them identical.
	SimStats []simPoint `json:"sim_stats,omitempty"`
	Errors   []string   `json:"errors,omitempty"`
	Env      envBlock   `json:"env"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not finite", name))
				r.Correct = false
				v = 0
			}
			r.Metrics[name] = metricVal{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perf: metric " + name + " is not in the tables of metrics.go")
}

func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
}
