package dpnfs_test

import (
	"os"
	"strconv"
	"testing"

	"dpnfs/directpnfs"
)

// benchScale returns the data-size scale for benchmark runs.  The default
// (5% of the paper's sizes) keeps `go test -bench=.` under a few minutes;
// set DPNFS_BENCH_SCALE=1.0 to run the paper's full sizes, or use
// cmd/dpnfs-bench.
func benchScale() float64 {
	if v := os.Getenv("DPNFS_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

// benchFigure regenerates one figure per iteration and reports every
// series' value at the largest client count as a named metric, so
// `go test -bench` output carries the figure's headline numbers.
func benchFigure(b *testing.B, id string, clients []int) {
	b.Helper()
	gen := directpnfs.Figures[id]
	var fig directpnfs.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = gen(directpnfs.FigureOptions{Scale: benchScale(), Clients: clients})
		if err != nil {
			b.Fatal(err)
		}
	}
	max := clients[len(clients)-1]
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.X == max {
				b.ReportMetric(p.Y, s.Label+"@"+strconv.Itoa(max))
			}
		}
	}
}

var iorClients = []int{1, 4, 8}

// Figure 6: aggregate write throughput (MB/s).
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a", iorClients) }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b", iorClients) }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "6c", iorClients) }
func BenchmarkFig6d(b *testing.B) { benchFigure(b, "6d", iorClients) }
func BenchmarkFig6e(b *testing.B) { benchFigure(b, "6e", iorClients) }

// Figure 7: aggregate read throughput against warm server caches (MB/s).
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a", iorClients) }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b", iorClients) }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "7c", iorClients) }
func BenchmarkFig7d(b *testing.B) { benchFigure(b, "7d", iorClients) }

// Figure 8: application benchmarks.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "8a", []int{1, 4, 8}) }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "8b", []int{1, 4, 9}) }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "8c", []int{1, 4, 8}) }
func BenchmarkFig8d(b *testing.B) { benchFigure(b, "8d", []int{1, 4, 8}) }

// §6.4.3 SSH-build phase study.
func BenchmarkSSHBuild(b *testing.B) { benchFigure(b, "ssh", []int{1}) }

// Ablation benches: design choices DESIGN.md calls out.

// BenchmarkAblationDirectVsBlindLayout isolates the paper's core claim —
// exact layouts (Direct) vs blind striping (2-tier) on the same hardware.
func BenchmarkAblationDirectVsBlindLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, arch := range []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPNFS2Tier} {
			cl := directpnfs.New(directpnfs.Config{Arch: arch, Clients: 4})
			res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
				FileSize: int64(float64(500<<20) * benchScale()),
				Block:    2 << 20, Separate: true, Read: true,
			})
			cl.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ThroughputMBs(), string(arch)+"_MB/s")
		}
	}
}

// BenchmarkAblationWriteGathering measures the NFS client's wsize gathering
// by comparing 8 KB against 2 MB application blocks on Direct-pNFS.
func BenchmarkAblationWriteGathering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, block := range []int64{8 << 10, 2 << 20} {
			cl := directpnfs.New(directpnfs.Config{Arch: directpnfs.ArchDirectPNFS, Clients: 4})
			res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
				FileSize: int64(float64(500<<20) * benchScale()),
				Block:    block, Separate: true,
			})
			cl.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ThroughputMBs(), "block"+strconv.FormatInt(block>>10, 10)+"K_MB/s")
		}
	}
}

// BenchmarkAblationAggregationDrivers compares the pluggable aggregation
// schemes under Direct-pNFS (paper §4.3).
func BenchmarkAblationAggregationDrivers(b *testing.B) {
	schemes := []struct {
		name   string
		agg    string
		params []int64
	}{
		{"round-robin", "", nil},
		{"hierarchical", "hierarchical", []int64{2 << 20, 512 << 10, 2}},
		{"variable-stripe", "variable-stripe", []int64{4 << 20, 2 << 20, 2 << 20, 1 << 20, 1 << 20, 512 << 10}},
		{"replicated", "replicated", []int64{2, 1 << 20}},
	}
	for i := 0; i < b.N; i++ {
		for _, s := range schemes {
			cl := directpnfs.New(directpnfs.Config{
				Arch: directpnfs.ArchDirectPNFS, Clients: 4,
				Aggregation: s.agg, AggParams: s.params,
			})
			res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
				FileSize: int64(float64(200<<20) * benchScale()),
				Block:    2 << 20, Separate: true,
			})
			cl.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.ThroughputMBs(), s.name+"_MB/s")
		}
	}
}
