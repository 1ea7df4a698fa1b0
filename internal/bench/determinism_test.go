package bench

import (
	"reflect"
	"testing"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
)

// counterSum totals one counter family's series values in a registry.
func counterSum(reg *metrics.Registry, name string) float64 {
	return reg.Snapshot().Total(name)
}

// TestFigureDeterminism pins the package's seed-threading rule (see the
// package doc): two runs of the same figure with the same options — and,
// for the degraded figure, the same fault plan — produce identical Figure
// values.  Any wall-clock or global-RNG leakage into the simulated path
// breaks this immediately.
func TestFigureDeterminism(t *testing.T) {
	archs := []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2}

	opt := Options{Scale: 0.02, Clients: []int{2}, Archs: archs}
	a, err := Fig6a(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6a(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig6a not deterministic:\n%v\nvs\n%v", a, b)
	}

	d1, err := Degraded(Options{Archs: archs})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Degraded(Options{Archs: archs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("Degraded figure not deterministic:\n%v\nvs\n%v", d1, d2)
	}
	// The degraded figure must actually show degradation and recovery:
	// during < before, and after recovers to at least half of before.
	for _, s := range d1.Series {
		before, during, after := s.Points[0].Y, s.Points[1].Y, s.Points[2].Y
		if before <= 0 {
			t.Errorf("%s: no baseline throughput", s.Label)
		}
		if during >= before/2 {
			t.Errorf("%s: outage did not degrade throughput (before %.1f, during %.1f)", s.Label, before, during)
		}
		if after < before/2 {
			t.Errorf("%s: throughput did not recover after restart (before %.1f, after %.1f)", s.Label, before, after)
		}
	}

	// The recovery figure — the same schedule on the WAL backend, where the
	// crash also wipes the victim's store image — obeys the same rules.
	// Recovery itself errors out if no journal records were replayed.
	r1, err := Recovery(Options{Archs: archs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Recovery(Options{Archs: archs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Recovery figure not deterministic:\n%v\nvs\n%v", r1, r2)
	}
	for _, s := range r1.Series {
		before, after := s.Points[0].Y, s.Points[2].Y
		if before <= 0 {
			t.Errorf("%s: no baseline throughput on the WAL backend", s.Label)
		}
		if after < before/2 {
			t.Errorf("%s: throughput did not recover after WAL replay (before %.1f, after %.1f)", s.Label, before, after)
		}
	}
}

// TestRebalanceFigureDeterminism extends the same-seed rule to the
// elastic-membership figure: two runs produce identical series and identical
// migration counters, the run is non-vacuous (bytes actually migrated), and
// the figure's contract holds — joining a node never leaves steady-state
// foreground throughput below the pre-join baseline.
func TestRebalanceFigureDeterminism(t *testing.T) {
	archs := []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2}
	run := func() (Figure, []float64) {
		reg := metrics.NewRegistry()
		fig, err := Rebalance(Options{Scale: 0.05, Archs: archs, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return fig, []float64{
			counterSum(reg, "rebalance_bytes_total"),
			counterSum(reg, "rebalance_files_total"),
			counterSum(reg, "rebalance_reissued_chunks_total"),
		}
	}
	fig1, mig1 := run()
	fig2, mig2 := run()
	if !reflect.DeepEqual(fig1, fig2) {
		t.Errorf("Rebalance figure not deterministic:\n%v\nvs\n%v", fig1, fig2)
	}
	if !reflect.DeepEqual(mig1, mig2) {
		t.Errorf("migration counters not deterministic: %v vs %v", mig1, mig2)
	}
	if mig1[0] < 1 || mig1[1] < 1 {
		t.Errorf("vacuous run: migrated %v bytes across %v files", mig1[0], mig1[1])
	}
	// A healthy join re-issues nothing: the fast first pass moves it all.
	if mig1[2] != 0 {
		t.Errorf("healthy join re-issued %v chunks, want 0", mig1[2])
	}
	for _, s := range fig1.Series {
		before, after := s.Points[0].Y, s.Points[2].Y
		if before <= 0 {
			t.Errorf("%s: no pre-join baseline throughput", s.Label)
		}
		if after < before {
			t.Errorf("%s: post-join steady state %.1f MB/s below the pre-join baseline %.1f", s.Label, after, before)
		}
	}
}

// TestTailFigureDeterminism extends the same-seed rule to the tail-latency
// figure: two runs produce byte-identical series AND byte-identical hedge
// counters (launch/win/cancel totals come from seeded coin flips in the
// simulated network, so any nondeterminism in the hedge machinery shows up
// here).  It also asserts the run is non-vacuous — the degraded phases
// actually launched hedges — and, per the determinism rule, that the hedge
// straggler timers never touched the wall clock on the fabric transport.
func TestTailFigureDeterminism(t *testing.T) {
	archs := []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2}
	run := func() (Figure, []float64) {
		reg := metrics.NewRegistry()
		fig, err := Tail(Options{Scale: 0.02, Archs: archs, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return fig, []float64{
			counterSum(reg, "ioengine_hedges_launched_total"),
			counterSum(reg, "ioengine_hedges_won_total"),
			counterSum(reg, "ioengine_hedges_cancelled_total"),
			counterSum(reg, "ioengine_wallclock_timers_total"),
		}
	}
	fig1, hedges1 := run()
	fig2, hedges2 := run()
	if !reflect.DeepEqual(fig1, fig2) {
		t.Errorf("Tail figure not deterministic:\n%v\nvs\n%v", fig1, fig2)
	}
	if !reflect.DeepEqual(hedges1, hedges2) {
		t.Errorf("hedge counters not deterministic: %v vs %v", hedges1, hedges2)
	}
	if hedges1[0] < 1 {
		t.Error("vacuous run: no hedges launched across the hedged clusters")
	}
	if hedges1[1]+hedges1[2] != hedges1[0] {
		t.Errorf("hedge counters do not reconcile: launched=%v won=%v cancelled=%v",
			hedges1[0], hedges1[1], hedges1[2])
	}
	// Regression (sim-determinism rule): a tail run on the fabric transport
	// must arm zero wall-clock straggler timers — hedge timing is virtual.
	if hedges1[3] != 0 {
		t.Errorf("fabric tail run armed %v wall-clock timers, want 0", hedges1[3])
	}
	// The figure's contract: hedging never worsens the degraded tail.  Match
	// each arch's hedged/unhedged degraded series and compare p999 (the last
	// point in each series).
	for _, arch := range archs {
		unhedged := fig1.Value(archLabel(arch)+" unhedged degraded", 999)
		hedged := fig1.Value(archLabel(arch)+" hedged degraded", 999)
		if unhedged <= 0 || hedged <= 0 {
			t.Errorf("%s: missing degraded p999 series (unhedged %v, hedged %v)", archLabel(arch), unhedged, hedged)
			continue
		}
		if hedged > unhedged {
			t.Errorf("%s: hedged degraded p999 %.1fms worse than unhedged %.1fms", archLabel(arch), hedged, unhedged)
		}
	}
}

// TestIntegrityFigureDeterminism extends the same-seed rule to the
// data-integrity figure: two runs produce identical series and identical
// corruption/repair counters, and the run is non-vacuous — rot was injected,
// foreground reads repaired at least one extent, and the background scrub
// scanned the stores.  (The workload itself verifies every delivered byte,
// so a figure that returns at all delivered zero corrupt bytes.)
func TestIntegrityFigureDeterminism(t *testing.T) {
	archs := []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2}
	run := func() (Figure, []float64) {
		reg := metrics.NewRegistry()
		fig, err := Integrity(Options{Scale: 0.05, Archs: archs, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return fig, []float64{
			counterSum(reg, "faults_injected_total"),
			counterSum(reg, "nfs_client_corrupt_reads_total") + counterSum(reg, "pvfs_client_corrupt_reads_total"),
			counterSum(reg, "nfs_client_read_repairs_total") + counterSum(reg, "pvfs_client_read_repairs_total"),
			counterSum(reg, "scrub_extents_total"),
			counterSum(reg, "scrub_errors_found_total"),
			counterSum(reg, "scrub_repaired_total"),
		}
	}
	fig1, c1 := run()
	fig2, c2 := run()
	if !reflect.DeepEqual(fig1, fig2) {
		t.Errorf("Integrity figure not deterministic:\n%v\nvs\n%v", fig1, fig2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("integrity counters not deterministic: %v vs %v", c1, c2)
	}
	if c1[0] < 1 || c1[2] < 1 || c1[3] < 1 {
		t.Errorf("vacuous run: injected=%v repairs=%v scanned=%v", c1[0], c1[2], c1[3])
	}
	// Detection reconciles: every found corruption was repaired by someone.
	if c1[1] < c1[2] {
		t.Errorf("more repairs than detections: detected=%v repaired=%v", c1[1], c1[2])
	}
	for _, s := range fig1.Series {
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s: vacuous phase %d", s.Label, p.X)
			}
		}
	}
}
