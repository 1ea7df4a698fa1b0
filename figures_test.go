package dpnfs_test

import (
	"testing"

	"dpnfs/directpnfs"
)

// These tests assert the qualitative shapes of the paper's figures at a
// reduced scale: who wins, by roughly what factor, and where behaviour
// changes.  Absolute values are calibration-dependent and are checked only
// for plausibility.

const shapeScale = 0.08

func figure(t *testing.T, id string, clients []int) directpnfs.Figure {
	t.Helper()
	fig, err := directpnfs.Figures[id](directpnfs.FigureOptions{Scale: shapeScale, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

func TestShapeFig6aWritePlateaus(t *testing.T) {
	fig := figure(t, "6a", []int{1, 4, 8})
	direct := fig.Value("Direct-pNFS", 8)
	pvfs := fig.Value("PVFS2", 8)
	threeTier := fig.Value("pNFS-3tier", 8)
	nfsv4 := fig.Value("NFSv4", 8)

	// Direct-pNFS matches the exported parallel file system.
	if ratio := direct / pvfs; ratio < 0.85 || ratio > 1.2 {
		t.Errorf("Direct/PVFS2 write ratio %.2f, want ~1", ratio)
	}
	// pNFS-3tier plateaus well below the disk-limited systems.
	if threeTier > 0.92*direct {
		t.Errorf("3-tier (%.1f) should plateau below Direct (%.1f)", threeTier, direct)
	}
	// NFSv4 is flat and lowest.
	if nfsv4 > 0.6*direct {
		t.Errorf("NFSv4 (%.1f) should be far below Direct (%.1f)", nfsv4, direct)
	}
	n1, n8 := fig.Value("NFSv4", 1), fig.Value("NFSv4", 8)
	if n8 > 1.5*n1 {
		t.Errorf("NFSv4 should be flat: %.1f @1 vs %.1f @8", n1, n8)
	}
}

func TestShapeFig6cTwoTierHalvesOnSlowNetwork(t *testing.T) {
	fig := figure(t, "6c", []int{4, 8})
	direct := fig.Value("Direct-pNFS", 8)
	twoTier := fig.Value("pNFS-2tier", 8)
	// Inter-data-server forwarding costs 2-tier about half its bandwidth
	// when the network is the bottleneck (paper Fig 6c).
	if twoTier > 0.65*direct {
		t.Errorf("100 Mbps: 2-tier (%.1f) should be ~half of Direct (%.1f)", twoTier, direct)
	}
}

func TestShapeFig6dSmallWrites(t *testing.T) {
	large := figure(t, "6a", []int{8})
	small := figure(t, "6d", []int{8})
	// NFS-based systems are unaffected by the application block size
	// (write gathering); PVFS2 collapses.
	d1, d2 := large.Value("Direct-pNFS", 8), small.Value("Direct-pNFS", 8)
	if d2 < 0.8*d1 {
		t.Errorf("Direct-pNFS 8K writes (%.1f) should match 2M writes (%.1f)", d2, d1)
	}
	p1, p2 := large.Value("PVFS2", 8), small.Value("PVFS2", 8)
	if p2 > 0.55*p1 {
		t.Errorf("PVFS2 8K writes (%.1f) should collapse vs 2M writes (%.1f)", p2, p1)
	}
	// And Direct-pNFS beats PVFS2 outright on small blocks.
	if d2 < 2*p2 {
		t.Errorf("8K blocks: Direct (%.1f) should far exceed PVFS2 (%.1f)", d2, p2)
	}
}

func TestShapeFig7aReadScaling(t *testing.T) {
	fig := figure(t, "7a", []int{1, 8})
	direct1, direct8 := fig.Value("Direct-pNFS", 1), fig.Value("Direct-pNFS", 8)
	nfsv48 := fig.Value("NFSv4", 8)
	twoTier8 := fig.Value("pNFS-2tier", 8)
	// Direct-pNFS scales with clients (eliminating the single-server
	// bottleneck); NFSv4 stays at single-server bandwidth.
	if direct8 < 3*direct1 {
		t.Errorf("Direct reads should scale: %.1f @1 → %.1f @8", direct1, direct8)
	}
	if direct8 < 2.2*nfsv48 {
		t.Errorf("Direct (%.1f) should far exceed NFSv4 (%.1f) at 8 clients", direct8, nfsv48)
	}
	// Indirect data access caps 2-tier below Direct.
	if twoTier8 > 0.85*direct8 {
		t.Errorf("2-tier (%.1f) should trail Direct (%.1f)", twoTier8, direct8)
	}
}

func TestShapeFig7bPVFS2OvertakesAtScale(t *testing.T) {
	fig := figure(t, "7b", []int{1, 8})
	// Paper Fig 7b: PVFS2 is below Direct-pNFS with few clients but
	// overtakes it at 8 (co-located server modules + fixed buffer pool).
	if d, p := fig.Value("Direct-pNFS", 1), fig.Value("PVFS2", 1); p > d {
		t.Errorf("1 client: PVFS2 (%.1f) should trail Direct (%.1f)", p, d)
	}
	if d, p := fig.Value("Direct-pNFS", 8), fig.Value("PVFS2", 8); p < d {
		t.Errorf("8 clients: PVFS2 (%.1f) should overtake Direct (%.1f)", p, d)
	}
}

func TestShapeFig7cSmallReads(t *testing.T) {
	fig := figure(t, "7c", []int{8})
	d, p := fig.Value("Direct-pNFS", 8), fig.Value("PVFS2", 8)
	// Readahead keeps NFS-based reads at large-block speed; PVFS2 pays per
	// request.
	if d < 3*p {
		t.Errorf("8K reads: Direct (%.1f) should be several× PVFS2 (%.1f)", d, p)
	}
}

func TestShapeFig8Applications(t *testing.T) {
	if testing.Short() {
		t.Skip("application figures are slow")
	}
	atlas := figure(t, "8a", []int{4})
	if d, p := atlas.Value("Direct-pNFS", 4), atlas.Value("PVFS2", 4); d < 2*p {
		t.Errorf("ATLAS: Direct (%.1f) should far exceed PVFS2 (%.1f)", d, p)
	}
	oltp := figure(t, "8c", []int{4})
	if d, p := oltp.Value("Direct-pNFS", 4), oltp.Value("PVFS2", 4); d < 2*p {
		t.Errorf("OLTP: Direct (%.1f) should far exceed PVFS2 (%.1f)", d, p)
	}
	pm := figure(t, "8d", []int{4})
	if d, p := pm.Value("Direct-pNFS", 4), pm.Value("PVFS2", 4); d < 1.4*p {
		t.Errorf("Postmark: Direct (%.1f tps) should exceed PVFS2 (%.1f tps)", d, p)
	}
	btio := figure(t, "8b", []int{4})
	d, p := btio.Value("Direct-pNFS", 4), btio.Value("PVFS2", 4)
	// BTIO (bulk I/O): comparable running times.
	if d > 1.6*p || p > 1.6*d {
		t.Errorf("BTIO times should be comparable: Direct %.1fs, PVFS2 %.1fs", d, p)
	}
}
