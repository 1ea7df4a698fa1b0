// Command perf is the repository's wall-clock benchmark: four workloads,
// six end-to-end metrics, per-layer probes and a traced run.  README.md in
// this directory says what each of them is and why; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	bash perf/run.sh -workload seq_read            # one workload, end-to-end metrics
//	bash perf/run.sh -workload all -out A.jsonl    # all four, appended to a result set
//	bash perf/run.sh -workload seq_read -trace 1   # per-layer metrics + span file
//	bash perf/run.sh -probes                       # layer probes only
//	bash perf/run.sh -compare A.jsonl B.jsonl      # regression check between two result sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The exit code is non-zero if any
// op failed or any verification did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:]))
}

// testHooks lets the failure-accounting test drive run with a fault armed;
// nothing but that test sets it.
var testHooks struct{ corruptReads, wrongPattern bool }

// manifest renders BENCHMARK.json from the tables this program measures by.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}

func run(args []string) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	workload := fs.String("workload", "all", "seq_read, seq_write, smallfile_wal, sim_figures, or all")
	seed := fs.Int64("seed", 1, "derives every byte pattern, file size and op choice")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	probes := fs.Bool("probes", false, "run the layer probes only")
	out := fs.String("out", "", "append each run's full result to this file, one JSON object per line")
	check := fs.Bool("check", false, "tiny sizes: a smoke run, not a measurement")
	compare := fs.Bool("compare", false, "compare two result sets: perf -compare A.jsonl B.jsonl")
	traceFile := fs.String("tracefile", "", "where a traced TCP run writes its spans (default .bench_build/perf-trace-<workload>.json)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as this program's tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		m, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		os.Stdout.Write(m)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perf -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perf: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runCfg{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceFile: *traceFile, sz: benchSizes,
		corruptReads: testHooks.corruptReads, wrongPattern: testHooks.wrongPattern,
	}
	if *check {
		cfg.sz = checkSizes
	}
	if *probes {
		vals, err := runProbes(cfg.sz.probeBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		for _, d := range perLayer {
			if v, ok := vals[d.Name]; ok {
				fmt.Printf("probes %s %s %s\n", d.Name, formatValue(v), d.Unit)
			}
		}
		return 0
	}

	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *workload)
		return 2
	}
	code := 0
	for _, name := range names {
		r, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", name, err)
			return 1
		}
		if err := report(r, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		if !r.Correct {
			code = 1
		}
	}
	return code
}

// report prints one result — a line per metric, then the contract's JSON
// object — and appends it to the -out file.
func report(r *result, out string) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", r.Workload, d.Name, formatValue(r.Metrics[d.Name].Value), d.Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		fmt.Printf("# %s %s %s\n", r.Workload, k, formatValue(r.Extra[k]))
	}
	fmt.Printf("# %s ops_attempted %d ops_failed %d correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Printf("# %s ERROR %s\n", r.Workload, e)
	}
	fmt.Printf("# %s env commit=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s; %s\n",
		r.Workload, r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GOGC, r.Env.Note)
	if out != "" {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1 // the contract wants at least 1; a run that attempted nothing is not correct
		r.Correct = false
	}
	last, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.Correct, attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
