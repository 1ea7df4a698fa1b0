package cluster

import (
	"strings"
	"testing"
)

// BackendFactory builds a store for each shipped kind, and refuses any other
// kind with an error that names the ones it accepts.
func TestBackendFactory(t *testing.T) {
	for _, tc := range []struct {
		kind string
		ok   bool
	}{
		{"", true},
		{BackendMem, true},
		{BackendWAL, true},
		{"cached", false}, // a retired backend
		{"tape", false},
	} {
		t.Run("kind="+tc.kind, func(t *testing.T) {
			f, err := BackendFactory(tc.kind)
			if !tc.ok {
				if err == nil {
					t.Fatalf("BackendFactory(%q) accepted an unknown kind", tc.kind)
				}
				for _, want := range []string{BackendMem, BackendWAL} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			s := f("io0", nil, nil)
			if s == nil {
				t.Fatal("factory built no store")
			}
			if _, err := s.Create(s.Root(), "f"); err != nil {
				t.Fatalf("store from %q: %v", tc.kind, err)
			}
		})
	}
}
