package dpnfs_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dpnfs/internal/metrics"
	"dpnfs/internal/nfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/store/mem"
)

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// TestMarkdownLinksResolve walks every tracked markdown file and verifies
// that relative links point at files (or directories) that exist.  External
// URLs and pure anchors are skipped — CI must not depend on the network.
// This is the docs job's link checker (.github/workflows/ci.yml).
func TestMarkdownLinksResolve(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		// PAPER.md, PAPERS.md, and SNIPPETS.md are vendored retrieval
		// artifacts (extracted paper text may reference figures that were
		// never checked in); only repo-authored docs are held to the link
		// contract.
		switch path {
		case "PAPER.md", "PAPERS.md", "SNIPPETS.md":
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — walker broken?")
	}

	checked := 0
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				continue // intra-document anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no relative links checked — the README/doc links should exist")
	}
}

// TestRequiredDocsLinked pins the documentation contract: the architecture
// and metrics references exist and README.md links both.
func TestRequiredDocsLinked(t *testing.T) {
	for _, p := range []string{"docs/ARCHITECTURE.md", "docs/METRICS.md", "docs/FAULTS.md", "docs/BACKENDS.md"} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s: %v", p, err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/METRICS.md", "docs/FAULTS.md", "docs/BACKENDS.md"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md does not link %s", want)
		}
	}
}

// TestMetricsDocListsEveryLabelValue holds the `op` and `proc` label values
// docs/METRICS.md lists to the tables the operations are declared in, read
// through what those tables feed: the per-op counters an NFS server
// registers at construction, and the PVFS2 request registries and ProcName.
func TestMetricsDocListsEveryLabelValue(t *testing.T) {
	raw, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	// listed returns the backquoted values that follow leadIn in its
	// paragraph, however the paragraph is wrapped.
	listed := func(leadIn string) []string {
		for _, para := range strings.Split(string(raw), "\n\n") {
			_, rest, ok := strings.Cut(strings.Join(strings.Fields(para), " "), leadIn)
			if !ok {
				continue
			}
			var out []string
			for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(rest, -1) {
				out = append(out, m[1])
			}
			return out
		}
		t.Fatalf("docs/METRICS.md has no paragraph with %q", leadIn)
		return nil
	}

	reg := metrics.NewRegistry()
	nfs.NewServer(nfs.ServerConfig{Backend: nfs.NewStoreBackend(mem.New(), nil), Metrics: reg})
	var ops []string
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == "nfs_server_ops_total" {
			for _, s := range fam.Series {
				ops = append(ops, s.Labels["op"])
			}
		}
	}
	var meta, io []string
	metaReg, ioReg := pvfs.MetaRegistry(), pvfs.IORegistry()
	for proc := uint32(0); proc < 1024; proc++ {
		if metaReg.New(proc) != nil {
			meta = append(meta, pvfs.ProcName(proc))
		}
		if ioReg.New(proc) != nil {
			io = append(io, pvfs.ProcName(proc))
		}
	}
	for _, c := range []struct {
		leadIn string
		want   []string
	}{
		{"Every `op` value, in operation-number order:", ops},
		{"Every `proc` value of `pvfs_meta_requests_total`, in procedure-number order:", meta},
		{"Every `proc` value of `pvfs_storage_requests_total`, in procedure-number order:", io},
	} {
		if got := listed(c.leadIn); len(c.want) == 0 || !reflect.DeepEqual(got, c.want) {
			t.Errorf("docs/METRICS.md, %q\n lists %v\n  want %v", c.leadIn, got, c.want)
		}
	}
}
