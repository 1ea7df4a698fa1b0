package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"dpnfs/internal/metrics"
)

// workloads names the four workloads and why each exists (BENCHMARK.json
// repeats the one-line reasons).
var workloads = []struct{ name, why string }{
	{"seq_read", "cold-cache 2 MB sequential reads over loopback TCP on the mem backend: the per-byte data path (xdr, rpc/tcp, nfs, pvfs, store/mem CRC verify)"},
	{"seq_write", "2 MB sequential writes + fsync on the same cluster: the same layers the other way (write gathering, write-back batching, COMMIT, CRC seal)"},
	{"smallfile_wal", "create/write/fsync/read/stat/remove of 4-64 KB files on the wal backend: per-message and metadata cost, and the journal; per-byte copying does little here"},
	{"sim_figures", "all five architectures on the simulated fabric (IOR small and large blocks, one open-loop point): host speed of the event kernel, which no TCP workload touches"},
}

// envBlock records where a result came from.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Note       string `json:"note"`
}

const envNote = "one process holds clients and servers; sockets are this sandbox's loopback and the stores are in memory, so latencies are the sandbox's, not a device's"

func readEnv() envBlock {
	e := envBlock{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"), Note: envNote,
	}
	if e.GOGC == "" {
		e.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value + e.Commit[len("unknown"):]
			case s.Key == "vcs.modified" && s.Value == "true":
				e.Commit += "+modified"
			}
		}
	}
	return e
}

func newResult(name string, cfg runCfg) *result {
	return &result{
		Workload: name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
		Correct: true, Metrics: make(map[string]metricVal), Extra: make(map[string]float64),
		Env: readEnv(),
	}
}

// newTCPWorkload builds the named TCP workload, or nil.
func newTCPWorkload(name string, cfg runCfg) tcpWorkload {
	switch name {
	case "seq_read":
		return &seqWorkload{cfg: cfg}
	case "seq_write":
		return &seqWorkload{cfg: cfg, write: true}
	case "smallfile_wal":
		return &smallWorkload{cfg: cfg}
	}
	return nil
}

// runWorkload runs one workload once and returns its result.  The error is
// for a run that could not be made at all; a run that was made but went
// wrong comes back with Correct false.
func runWorkload(name string, cfg runCfg) (*result, error) {
	if name == "sim_figures" {
		return runSim(cfg)
	}
	if newTCPWorkload(name, cfg) == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.trace {
		return runTCPTraced(name, cfg)
	}
	return runTCPPlain(name, cfg)
}

// sliceRates records the run's trajectory.
func (r *result) sliceRates(sl []slice) {
	r.Extra["slices"] = float64(len(sl))
	for _, s := range sl {
		if len(s.latMs) > 0 {
			r.Slices = append(r.Slices, s.view())
		}
	}
}

// account folds a phase's op accounting and verification into the result.
func (r *result) account(ph *tcpPhase) {
	attempted, failed, _, _, firstErr := ph.totals()
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.fail("%d of %d ops failed; first: %v", failed, attempted, firstErr)
	}
	if ph.verify != nil {
		r.fail("verification: %v", ph.verify)
	}
}

func runTCPPlain(name string, cfg runCfg) (*result, error) {
	r := newResult(name, cfg)
	w := newTCPWorkload(name, cfg)
	ph, err := runTCPPhase(w, cfg, clusterCfg{clients: w.clients()}, false)
	if err != nil {
		return nil, err
	}
	r.account(ph)
	m, perSlice := fromSlices(ph.slices)
	for _, d := range endToEnd {
		if v, ok := m[d.Name]; ok {
			r.set(endToEnd, d.Name, v)
		}
	}
	r.set(endToEnd, "setup_s", quantile(ph.setupS, 0.25))
	r.SetupS = ph.setupS
	r.Extra["op_p99_ms"] = m["op_p99_ms"]
	_, _, ops, _, _ := ph.totals()
	all := ph.latencies()
	r.sliceRates(ph.slices)
	r.Extra["latency_samples_per_slice"] = perSlice
	r.Extra["ops_completed"] = float64(ops)
	r.Extra["whole_phase_p50_ms"] = median(all)
	r.Extra["whole_phase_p99_ms"] = percentile(all, 99)
	r.Extra["whole_phase_ops_per_s"] = float64(ops) / ph.wall.Seconds()
	r.Extra["whole_phase_cpu_us_per_op"] = float64(ph.cpu.Microseconds()) / math.Max(1, float64(ops))
	r.Extra["rounds"] = float64(len(ph.setupS))
	return r, nil
}

// oneRound is cfg for one phase of a traced run: a single round as long as
// a round of the untraced run, so the reference phase (the workload
// untraced), the traced phase and seq_read's two extras are all comparable
// with each other and with the end-to-end numbers.
func oneRound(cfg runCfg) runCfg {
	cfg.dur /= time.Duration(cfg.sz.rounds)
	cfg.sz.rounds = 1
	return cfg
}

func runTCPTraced(name string, cfg runCfg) (*result, error) {
	r := newResult(name, cfg)
	for _, d := range perLayer {
		r.Metrics[d.Name] = metricVal{Unit: d.Unit} // 0 where a metric does not apply
	}
	set := func(k string, v float64) { r.set(perLayer, k, v) }

	probes, err := runProbes(cfg.sz.probeBudget)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		set(k, v)
	}

	cfg = oneRound(cfg)
	w := newTCPWorkload(name, cfg)
	all := clusterCfg{clients: w.clients()}
	ref, err := runTCPPhase(w, cfg, all, false)
	if err != nil {
		return nil, err
	}
	r.account(ref)
	refM, _ := fromSlices(ref.slices)

	ph, err := runTCPPhase(w, cfg, all, true)
	if err != nil {
		return nil, err
	}
	r.account(ph)
	trM, _ := fromSlices(ph.slices)
	_, _, nOps, userBytes, _ := ph.totals()
	ops := math.Max(1, float64(nOps))
	ub := math.Max(1, float64(userBytes))

	main := "ops_per_s"
	if name != "smallfile_wal" {
		main = "throughput_mb_s"
	}
	if refM[main] > 0 {
		set("trace.overhead_pct", (refM[main]-trM[main])/refM[main]*100)
	}

	// Registry, store wrapper, runtime.
	d := ph.reg
	calls, wire := registryMetrics(d, "tcp", ops, ub, set)
	storeBusyUs := storeMetrics(ph.store, ops, set)
	runtimeMetrics(&ph.mem, ops, set)

	// Application spans.
	dur := make(map[string][]float64)
	for _, rec := range ph.recs {
		for k, v := range rec.spans.durMs {
			dur[k] = append(dur[k], v...)
		}
	}
	for _, k := range []string{"open", "read", "write", "fsync", "close", "create", "stat", "remove"} {
		set("app."+k+"_p50_ms", median(dur[k]))
		r.Extra["app."+k+"_samples"] = float64(len(dur[k]))
	}
	set("app.fsync_p99_ms", percentile(dur["fsync"], 99))
	set("app.op_p99_ms", percentile(ph.latencies(), 99))

	// Cost shares: what each layer's probe says it costs, times how often
	// the traced phase called it, as a share of the CPU an op took.
	cpuUs := trM["cpu_us_per_op"]
	if cpuUs > 0 {
		nfsOp := func(op string) float64 {
			return d.counter("nfs_client_op_bytes_total", map[string]string{"op": op}) / ops
		}
		readB, writeB := nfsOp("READ"), nfsOp("WRITE")
		callsPerOp := calls / ops
		xdrUs := wire/ops/bulk*(probes["xdr.encode_opaque_2m_ns"]+probes["xdr.decode_borrow_2m_ns"])/1e3 +
			callsPerOp*4*probes["xdr.encode_small_ns"]/1e3
		smallCPU := probes["rpc.tcp_small_cpu_us"]
		rpcUs := callsPerOp*smallCPU +
			readB/bulk*(probes["rpc.tcp_read_2m_cpu_us"]-smallCPU) +
			writeB/bulk*(probes["rpc.tcp_write_2m_cpu_us"]-smallCPU) - xdrUs
		sumUs := ub / ops / chunk * probes["xdr.crc32c_64k_ns"] / 1e3
		engUs := d.counter("ioengine_requests_total", nil) / ops * probes["ioengine.run_ns_per_req"] / 1e3
		storeUs := math.Max(0, storeBusyUs-sumUs)
		set("share.xdr", xdrUs/cpuUs)
		set("share.rpc", rpcUs/cpuUs)
		set("share.checksum", sumUs/cpuUs)
		set("share.ioengine", engUs/cpuUs)
		set("share.store", storeUs/cpuUs)
		set("share.unattributed", 1-(xdrUs+rpcUs+sumUs+engUs+storeUs)/cpuUs)
		r.Extra["traced_cpu_us_per_op"] = cpuUs
	}

	if name == "seq_read" {
		set("nfs.warm_read_2m_us", w.(*seqWorkload).warmReadUs)
		one, err := runTCPPhase(w, cfg, clusterCfg{clients: 1}, false)
		if err != nil {
			return nil, err
		}
		r.account(one)
		oneM, _ := fromSlices(one.slices)
		set("app.read_1client_mb_s", oneM["throughput_mb_s"])
		r.Extra["read_1client_cpu_us_per_op"] = oneM["cpu_us_per_op"]

		sums, err := runTCPPhase(w, cfg, clusterCfg{clients: w.clients(), wireChecksums: true}, false)
		if err != nil {
			return nil, err
		}
		r.account(sums)
		sumsM, _ := fromSlices(sums.slices)
		if refM["cpu_us_per_op"] > 0 {
			set("overhead.wire_checksums_cpu_pct", (sumsM["cpu_us_per_op"]-refM["cpu_us_per_op"])/refM["cpu_us_per_op"]*100)
		}
	}
	path := cfg.traceFile
	if path == "" {
		path = ".bench_build/perf-trace-" + name + ".json"
	}
	if err := writeTrace(path, name, cfg.seed, ph); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	r.Extra["traced_ops"] = float64(nOps)
	return r, nil
}

// registryMetrics sets the per-layer metrics that come from the registry,
// taking the rpc families from the given transport's series.  ops and ub are
// the phase's completed ops and user bytes.  It returns the phase's rpc
// calls and wire bytes.
func registryMetrics(d *regDelta, transport string, ops, ub float64, set func(string, float64)) (calls, wire float64) {
	tr := map[string]string{"transport": transport}
	calls = d.counter("rpc_client_calls_total", tr)
	wire = d.counter("rpc_client_bytes_sent_total", tr) + d.counter("rpc_client_bytes_received_total", tr)
	set("rpc.calls_per_op", calls/ops)
	set("rpc.client_call_p50_ms", d.hist("rpc_client_call_seconds", tr).quantile(0.5)*1e3)
	set("rpc.server_handle_p50_ms", d.hist("rpc_server_handle_seconds", tr).quantile(0.5)*1e3)
	set("rpc.wire_bytes_per_user_byte", wire/ub)
	set("rpc.retries", d.counter("rpc_client_retries_total", tr))
	set("rpc.errors", d.counter("rpc_client_errors_total", tr))
	set("ioengine.requests_per_op", d.counter("ioengine_requests_total", nil)/ops)
	set("ioengine.slot_wait_p50_ms", d.hist("ioengine_slot_wait_seconds", nil).quantile(0.5)*1e3)
	set("ioengine.mean_occupancy", d.hist("ioengine_window_occupancy", nil).mean())
	set("ioengine.split_total", d.counter("ioengine_split_total", nil))
	set("ioengine.coalesced_total", d.counter("ioengine_coalesced_total", nil))
	for metric, op := range map[string]string{
		"nfs.read_p50_ms": "READ", "nfs.write_p50_ms": "WRITE", "nfs.commit_p50_ms": "COMMIT", "nfs.open_p50_ms": "OPEN",
	} {
		set(metric, d.hist("nfs_client_op_seconds", map[string]string{"op": op}).quantile(0.5)*1e3)
	}
	hits, misses := d.counter("nfs_client_pagecache_hits_total", nil), d.counter("nfs_client_pagecache_misses_total", nil)
	if hits+misses > 0 {
		set("nfs.pagecache_hit_ratio", hits/(hits+misses))
	}
	set("nfs.readahead_chunks_per_op", d.counter("nfs_client_readahead_chunks_total", nil)/ops)
	if opens := d.counter("nfs_client_ops_total", map[string]string{"op": "OPEN"}); opens > 0 {
		set("nfs.layout_cache_hit_ratio", d.counter("nfs_client_layout_cache_hits_total", nil)/opens)
	}
	set("nfs.slot_wait_p50_ms", d.hist("nfs_client_slot_wait_seconds", nil).quantile(0.5)*1e3)
	set("nfs.server_compounds_per_op", d.counter("nfs_server_compounds_total", nil)/ops)
	set("pvfs.storage_requests_per_op", d.counter("pvfs_storage_requests_total", nil)/ops)
	set("pvfs.meta_requests_per_op", d.counter("pvfs_meta_requests_total", nil)/ops)
	set("pvfs.storage_buffer_wait_p50_ms", d.hist("pvfs_storage_buffer_wait_seconds", nil).quantile(0.5)*1e3)
	set("store.wal_records_per_op", d.counter("store_wal_records_total", nil)/ops)
	set("store.wal_checkpoint_bytes_per_user_byte", d.counter("store_wal_checkpoint_bytes_total", nil)/ub)
	return calls, wire
}

// storeMetrics sets the store wrapper's per-layer metrics and returns the
// stores' total busy time per op in microseconds.
func storeMetrics(st *storeStats, ops float64, set func(string, float64)) (busyUs float64) {
	var calls int64
	for _, class := range []string{"read", "write", "sync", "meta"} {
		c, busy := st.classBusy(class)
		calls += c
		us := float64(busy.Microseconds()) / ops
		busyUs += us
		set("store."+class+"_busy_us_per_op", us)
	}
	set("store.calls_per_op", float64(calls)/ops)
	return busyUs
}

func runtimeMetrics(m *memDelta, ops float64, set func(string, float64)) {
	set("runtime.allocs_per_op", m.mallocs()/ops)
	set("runtime.alloc_kb_per_op", m.allocBytes()/1024/ops)
	set("runtime.gc_cycles", m.gcCycles())
	set("runtime.gc_pause_total_ms", m.gcPauseMs())
	set("runtime.peak_rss_mb", peakRSSMB())
}

// ---- sim_figures ----

// simSlice turns one pass into a slice: an op is a figure point, and host
// time is the process's CPU time.  The simulator is one compute-bound thread
// (plus the collector), so on a quiet machine CPU time is what its user
// waits for; on this sandbox wall time also holds whatever the hypervisor
// gave to other tenants, which no change to the repository can move.
func simSlice(pts []simPoint) slice {
	var s slice
	for _, p := range pts {
		s.dur += p.cpu
		s.bytes += p.Bytes
		s.latMs = append(s.latMs, float64(p.cpu)/1e6)
	}
	s.cpu = s.dur
	return s
}

// sameSim compares a pass's simulated statistics with the reference pass
// and returns the names of the points that differ.
func sameSim(ref, got []simPoint) []string {
	var bad []string
	for i := range ref {
		if i >= len(got) {
			bad = append(bad, ref[i].Name+" (missing)")
			continue
		}
		a, b := ref[i], got[i]
		if a.Name != b.Name || a.Events != b.Events || a.VirtNs != b.VirtNs ||
			math.Float64bits(a.MBs) != math.Float64bits(b.MBs) || a.Calls != b.Calls || a.Bytes != b.Bytes {
			bad = append(bad, a.Name)
		}
	}
	return bad
}

func runSim(cfg runCfg) (*result, error) {
	r := newResult("sim_figures", cfg)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range perLayer {
			r.Metrics[d.Name] = metricVal{Unit: d.Unit}
		}
	}
	set := func(k string, v float64) { r.set(defs, k, v) }

	dur := cfg.dur
	var reg *metrics.Registry
	var st *storeStats
	if cfg.trace {
		probes, err := runProbes(cfg.sz.probeBudget)
		if err != nil {
			return nil, err
		}
		for k, v := range probes {
			set(k, v)
		}
		dur /= 2
		reg = metrics.NewRegistry()
		st = newStoreStats()
		cfg.sz.simSetups = 1
	}

	// Set-up is a small untimed pass: it warms the allocator and the pools
	// the way the warm-up passes of the TCP workloads do.
	var setupS []float64
	warm := cfg
	warm.sz.simFile = cfg.sz.simWarmFile
	for s := 0; s < cfg.sz.simSetups; s++ {
		t0 := time.Now()
		if _, err := simPass(warm, nil, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// The first timed pass is the reference every later one must reproduce.
	var ref []simPoint

	var mem memDelta
	var d *regDelta
	if cfg.trace {
		st.reset()
		d = newRegDelta(reg)
	}
	mem.start()
	var slices []slice
	var evPerS, virtPerCPU []float64
	type archTotals struct{ events, calls, cpuNs float64 }
	perArch := make(map[string]*archTotals) // IOR points only
	var points, userBytes float64
	var wall time.Duration
	for t0 := time.Now(); time.Since(t0) < dur || len(slices) < 2; {
		pts, err := simPass(cfg, reg, st)
		if err != nil {
			return nil, err
		}
		sl := simSlice(pts)
		slices = append(slices, sl)
		if ref == nil {
			ref, r.SimStats = pts, pts
		}
		r.Attempted += int64(len(ref))
		if bad := sameSim(ref, pts); len(bad) > 0 {
			r.Failed += int64(len(bad))
			r.fail("pass %d: simulated statistics differ from the reference pass at %v", len(slices), bad)
		}
		var ev, virt float64
		for _, p := range pts {
			ev += float64(p.Events)
			virt += float64(p.VirtNs) / 1e9
			points++
			userBytes += float64(p.Bytes)
			if p.IOR {
				a := perArch[p.Arch]
				if a == nil {
					a = new(archTotals)
					perArch[p.Arch] = a
				}
				a.events += float64(p.Events)
				a.calls += float64(p.Calls)
				a.cpuNs += float64(p.cpu)
			}
		}
		evPerS = append(evPerS, ev/sl.dur.Seconds())
		virtPerCPU = append(virtPerCPU, virt/sl.dur.Seconds())
		for _, p := range pts {
			wall += p.wall
		}
	}
	mem.stop()

	r.sliceRates(slices)
	r.Extra["points_per_pass"] = float64(len(ref))
	if !cfg.trace {
		m, _ := fromSlices(slices)
		for _, d := range endToEnd {
			if v, ok := m[d.Name]; ok {
				set(d.Name, v)
			}
		}
		set("setup_s", quantile(setupS, 0.25))
		r.SetupS = setupS
		r.Extra["op_p99_ms"] = m["op_p99_ms"]
		r.Extra["sim_events_per_cpu_s"] = median(evPerS)
		r.Extra["sim_virt_s_per_cpu_s"] = median(virtPerCPU)
		r.Extra["wall_s_per_cpu_s"] = wall.Seconds() / total(slices).Seconds()
		return r, nil
	}

	d.stop()
	st.freeze()
	set("sim.events_per_cpu_s", median(evPerS))
	set("sim.virt_s_per_cpu_s", median(virtPerCPU))
	for a, v := range perArch {
		set("sim.events_per_app_call."+a, v.events/v.calls)
		set("sim.cpu_ns_per_event."+a, v.cpuNs/v.events)
	}
	registryMetrics(d, "sim", points, math.Max(1, userBytes), set) // latencies are virtual time
	storeMetrics(st, points, set)
	runtimeMetrics(&mem, points, set)
	return r, nil
}

// total is the summed length of the slices.
func total(sl []slice) time.Duration {
	var d time.Duration
	for _, s := range sl {
		d += s.dur
	}
	return d
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
