package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func checkCfg(trace bool, dir string) runCfg {
	return runCfg{
		seed: 7, dur: 150 * time.Millisecond, trace: trace, sz: checkSizes,
		traceFile: filepath.Join(dir, "trace.json"),
	}
}

// TestSmokeAllWorkloads runs every workload at the -check size, untraced and
// traced, and asserts every named metric is there and finite and every
// verification held.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(wl.name, checkCfg(trace, dir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					wl.name, trace, r.Correct, r.Attempted, r.Failed, r.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", wl.name, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", wl.name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", wl.name, d.Name, m.Unit, d.Unit)
				}
			}
			if trace && wl.name != "sim_figures" {
				// The probes and the traced phase must both have produced
				// something: one name from each source.
				for _, name := range []string{"xdr.crc32c_64k_ns", "rpc.calls_per_op", "store.calls_per_op", "app.open_p50_ms", "runtime.allocs_per_op"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("%s: traced metric %s = %v, want > 0", wl.name, name, r.Metrics[name].Value)
					}
				}
				var tf traceFile
				data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatal(err)
				}
				if tf.Workload != wl.name || len(tf.Mounts) < 2 || len(tf.Mounts[0].Records) == 0 || len(tf.Store) == 0 {
					t.Errorf("%s: trace file is incomplete: %d mounts, %d store rows", wl.name, len(tf.Mounts), len(tf.Store))
				}
			}
		}
	}
}

// TestSimPassesIdentical: simulated statistics are properties of the model,
// so two passes in one process give the same event counts and virtual MB/s.
func TestSimPassesIdentical(t *testing.T) {
	cfg := checkCfg(false, "")
	a, err := simPass(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simPass(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad := sameSim(a, b); len(bad) > 0 {
		t.Errorf("passes differ at %v", bad)
	}
	if len(a) != 21 {
		t.Errorf("a pass has %d points, want 5 architectures x 4 IOR runs + 1 open-loop point", len(a))
	}
	b[3].Events++
	if bad := sameSim(a, b); len(bad) != 1 || bad[0] != a[3].Name {
		t.Errorf("sameSim missed a changed event count: %v", bad)
	}
}

// TestFailuresAreCounted: a store error and a verification mismatch must
// each come out as failed ops and a non-zero exit, never as a faster run.
func TestFailuresAreCounted(t *testing.T) {
	dir := t.TempDir()
	defer func() { testHooks.corruptReads, testHooks.wrongPattern = false, false }()
	for _, tc := range []struct {
		name                       string
		corruptReads, wrongPattern bool
	}{
		{"store returns ErrCorrupt", true, false},
		{"expected pattern is wrong", false, true},
	} {
		testHooks.corruptReads, testHooks.wrongPattern = tc.corruptReads, tc.wrongPattern
		out := filepath.Join(dir, tc.name+".jsonl")
		args := []string{"-workload", "seq_read", "-check", "-seconds", "0.15", "-out", out,
			"-tracefile", filepath.Join(dir, "trace.json")}
		if tc.corruptReads {
			args = append(args, "-trace", "1") // the store wrapper exists only in a traced run
		}
		stdout := os.Stdout
		null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = null
		code := run(args)
		os.Stdout = stdout
		null.Close()
		if code == 0 {
			t.Errorf("%s: exit code 0", tc.name)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		if r.Failed == 0 || r.Correct || r.Failed > r.Attempted || len(r.Errors) == 0 {
			t.Errorf("%s: failed=%d attempted=%d correct=%v errors=%v, want failures and an incorrect run",
				tc.name, r.Failed, r.Attempted, r.Correct, r.Errors)
		}
	}
}

func TestStats(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i) // 200..1, unsorted
	}
	if got := percentile(v, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198 (two samples beyond it)", got)
	}
	if got := percentile(v, 100); got != 200 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	ten := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	q1, q3 := quartiles(ten)
	if !near(q1, 3.5) || !near(q3, 31) {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	if got := spread(ten); !near(got, (31-3.5)/13.5) {
		t.Errorf("spread = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.75); !near(got, 3.25) {
		t.Errorf("quantile 0.75 = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.25); !near(got, 1.75) {
		t.Errorf("quantile 0.25 = %v", got)
	}
}

func TestSlices(t *testing.T) {
	samples := []cpuSample{{0, 0}, {2 * time.Second, time.Second}, {4 * time.Second, 3 * time.Second}, {4500 * time.Millisecond, 3500 * time.Millisecond}}
	ops := []opRec{
		{end: time.Second, ms: 1, bytes: 10},
		{end: 3 * time.Second, ms: 2, bytes: 10},
		{end: 4400 * time.Millisecond, ms: 4, bytes: 10},
	}
	sl := cutSlices(samples, 2*time.Second, ops)
	// The 0.5 s tail is merged into the second slice.
	if len(sl) != 2 || sl[1].dur != 2500*time.Millisecond || sl[1].cpu != 2500*time.Millisecond ||
		len(sl[0].latMs) != 1 || len(sl[1].latMs) != 2 || sl[1].bytes != 20 {
		t.Fatalf("slices = %+v", sl)
	}
	// Good-side quartiles: the third of the two rates, the first of the two p99s.
	m, n := fromSlices(sl)
	if n != 1.5 || math.Abs(m["ops_per_s"]-(0.5+0.75*0.3)) > 1e-9 || m["op_p99_ms"] != 1+0.25*3 {
		t.Errorf("fromSlices = %v, %v", m, n)
	}
}

func TestCompare(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "ok"}, // faster is never a regression
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{115, 114, 116, 115, 115}, "ok"},
		{lower, steady, []float64{80, 100, 120, 140, 160}, "unresolved"},
		{lower, []float64{100}, []float64{120}, "regressed"}, // single runs: no spread to go by
	} {
		if _, _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}

	mk := func(wl string, failed int64, v float64) result {
		r := result{Workload: wl, Seed: 1, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricVal{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricVal{Value: v, Unit: d.Unit}
		}
		if wl == "sim_figures" {
			r.SimStats = []simPoint{{Name: "p", Events: 10, MBs: 1.5}}
		}
		return r
	}
	var a, b []result
	for _, wl := range workloads {
		a = append(a, mk(wl.name, 0, 100))
		b = append(b, mk(wl.name, 0, 100))
	}
	if !compareSets(a, b, io.Discard) {
		t.Error("identical sets do not compare equal")
	}
	b[0] = mk(b[0].Workload, 3, 100)
	var out bytes.Buffer
	if compareSets(a, b, &out) || !strings.Contains(out.String(), "failed/attempted rose") {
		t.Errorf("a risen failure rate passed:\n%s", out.String())
	}
	b[0] = mk(b[0].Workload, 0, 100)
	b[3].SimStats[0].Events = 11
	out.Reset()
	if compareSets(a, b, &out) || !strings.Contains(out.String(), "simulated statistics differ") {
		t.Errorf("a changed simulated statistic passed:\n%s", out.String())
	}
}

// TestManifestMatches keeps BENCHMARK.json and the tables of this package in
// step: `bash perf/run.sh -manifest > BENCHMARK.json` regenerates it.
func TestManifestMatches(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(got)) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and run.go; regenerate it with -manifest")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: name or unit too long", d.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}
