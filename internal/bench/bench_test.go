package bench

import (
	"strings"
	"testing"

	"dpnfs/internal/cluster"
)

func TestFigureStringRendersTable(t *testing.T) {
	fig := Figure{
		ID: "X", Title: "test", XLabel: "clients", YLabel: "MB/s",
		Series: []Series{
			{Label: "A", Points: []Point{{1, 10.5}, {4, 40}}},
			{Label: "B", Points: []Point{{1, 5}, {4, 20.25}}},
		},
	}
	s := fig.String()
	for _, want := range []string{"X: test", "clients", "A", "B", "10.5", "20.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFigureValue(t *testing.T) {
	fig := Figure{Series: []Series{{Label: "A", Points: []Point{{1, 7}}}}}
	if fig.Value("A", 1) != 7 {
		t.Fatal("lookup failed")
	}
	if fig.Value("A", 2) != -1 || fig.Value("Z", 1) != -1 {
		t.Fatal("missing lookup should return -1")
	}
}

func TestScaleBytesFloor(t *testing.T) {
	if scaleBytes(500<<20, 1.0) != 500<<20 {
		t.Fatal("identity scale changed size")
	}
	if got := scaleBytes(500<<20, 0.000001); got != 1<<20 {
		t.Fatalf("tiny scale should floor at 1 MiB, got %d", got)
	}
}

func TestArchLabels(t *testing.T) {
	wants := map[cluster.Arch]string{
		cluster.ArchDirectPNFS: "Direct-pNFS",
		cluster.ArchPVFS2:      "PVFS2",
		cluster.ArchPNFS2Tier:  "pNFS-2tier",
		cluster.ArchPNFS3Tier:  "pNFS-3tier",
		cluster.ArchNFSv4:      "NFSv4",
	}
	for arch, want := range wants {
		if got := archLabel(arch); got != want {
			t.Errorf("archLabel(%s) = %q, want %q", arch, got, want)
		}
	}
}

func TestAllRegistryComplete(t *testing.T) {
	if len(IDs) != len(All) {
		t.Fatalf("IDs has %d entries, All has %d", len(IDs), len(All))
	}
	for _, id := range IDs {
		if All[id] == nil {
			t.Errorf("figure %q missing from registry", id)
		}
	}
	// The simOnly mark is read through All: a marked figure refuses TCP
	// there, before it builds anything.
	if len(SimOnly) != 6 {
		t.Errorf("%d sim-only figures, want 6: %v", len(SimOnly), SimOnly)
	}
	for id := range SimOnly {
		if _, err := All[id](Options{Transport: cluster.TransportTCP}); err == nil || !strings.Contains(err.Error(), "virtual clock") {
			t.Errorf("sim-only figure %q on TCP: err %v, want the registry's refusal", id, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	opt := Options{}.withDefaults([]int{1, 2}, []cluster.Arch{cluster.ArchPVFS2})
	if opt.Scale != 1.0 || len(opt.Clients) != 2 || len(opt.Archs) != 1 {
		t.Fatalf("defaults not applied: %+v", opt)
	}
	opt = Options{Scale: 0.5, Clients: []int{9}}.withDefaults([]int{1}, cluster.Archs)
	if opt.Scale != 0.5 || opt.Clients[0] != 9 || len(opt.Archs) != 5 {
		t.Fatalf("overrides not honored: %+v", opt)
	}
}

func TestTinyFigureEndToEnd(t *testing.T) {
	fig, err := Fig6a(Options{Scale: 0.002, Clients: []int{1}, Archs: []cluster.Arch{cluster.ArchDirectPNFS}})
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Value("Direct-pNFS", 1); v <= 0 {
		t.Fatalf("tiny figure produced %v MB/s", v)
	}
}

// TestFiguresWithoutAShapeTestRun runs each figure that neither a shape test
// nor a determinism test builds, once at a tiny scale: every point it
// reports must be positive.
func TestFiguresWithoutAShapeTestRun(t *testing.T) {
	for _, id := range []string{"6b", "6e", "7d", "ssh"} {
		t.Run(id, func(t *testing.T) {
			fig, err := All[id](Options{Scale: 0.002, Clients: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Fatalf("%s: no points", s.Label)
				}
				for _, p := range s.Points {
					if !(p.Y > 0) {
						t.Errorf("%s at %v: %v, want a positive value", s.Label, p.X, p.Y)
					}
				}
			}
		})
	}
}
