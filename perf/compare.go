package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadResults reads a result set: one JSON result per line, as -out writes
// them.  Traced runs are skipped; end-to-end metrics come from untraced runs.
func loadResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict judges one (workload, metric) pair.  a and b are the two sides'
// values over their runs.  change is b's median relative to a's, signed so
// that positive is worse.
func verdict(d metricDef, a, b []float64) (change, widest float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, 0, "unresolved"
	}
	change = (mb - ma) / math.Abs(ma)
	if d.Better == "higher" {
		change = -change
	}
	widest = math.Max(spread(a), spread(b))
	switch {
	case widest > d.Bound:
		word = "unresolved" // the runs of one side disagree by more than the bound
	case change > d.Bound:
		word = "regressed"
	default:
		word = "ok"
	}
	return change, widest, word
}

// compareSets prints the comparison of two result sets and reports whether
// B is acceptable against A: no metric regressed, the failure rate did not
// rise, and sim_figures' simulated statistics are identical.
func compareSets(a, b []result, w io.Writer) bool {
	ok := true
	unresolved := 0
	for _, wl := range workloads {
		var ra, rb []result
		for _, r := range a {
			if r.Workload == wl.name {
				ra = append(ra, r)
			}
		}
		for _, r := range b {
			if r.Workload == wl.name {
				rb = append(rb, r)
			}
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: missing from one side (A has %d runs, B has %d)\n", wl.name, len(ra), len(rb))
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			change, widest, word := verdict(d, va, vb)
			fmt.Fprintf(w, "%-14s %-16s A %-12.6g B %-12.6g %s  worse by %+6.2f%%  bound %4.0f%%  spread %5.2f%%  n=%d/%d  %s\n",
				wl.name, d.Name, median(va), median(vb), d.Unit, change*100, d.Bound*100, widest*100, len(va), len(vb), word)
			switch word {
			case "regressed":
				ok = false
			case "unresolved":
				unresolved++
			}
		}
		fa, fb := failRate(ra), failRate(rb)
		if fb > fa {
			fmt.Fprintf(w, "%-14s failed/attempted rose from %g to %g\n", wl.name, fa, fb)
			ok = false
		}
		for _, r := range rb {
			if !r.Correct {
				fmt.Fprintf(w, "%-14s B has an incorrect run (seed %d): %v\n", wl.name, r.Seed, r.Errors)
				ok = false
			}
		}
		if wl.name == "sim_figures" {
			switch {
			case ra[0].Seed != rb[0].Seed:
				fmt.Fprintf(w, "%-14s simulated statistics not compared: seeds differ (%d, %d)\n", wl.name, ra[0].Seed, rb[0].Seed)
			case len(sameSim(ra[0].SimStats, rb[0].SimStats)) > 0 || len(ra[0].SimStats) != len(rb[0].SimStats):
				fmt.Fprintf(w, "%-14s simulated statistics differ at %v\n", wl.name, sameSim(ra[0].SimStats, rb[0].SimStats))
				ok = false
			default:
				fmt.Fprintf(w, "%-14s simulated statistics identical (%d points)\n", wl.name, len(ra[0].SimStats))
			}
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d pair(s) unresolved: the spread between one side's own runs is wider than the bound\n", unresolved)
	}
	return ok
}

func values(rs []result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failRate(rs []result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := loadResults(pathA)
	if err == nil {
		var b []result
		if b, err = loadResults(pathB); err == nil {
			if compareSets(a, b, w) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "perf:", err)
	return 2
}
