package nfs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertMerges(t *testing.T) {
	var l extList
	l = l.insert(0, 10)
	l = l.insert(20, 30)
	l = l.insert(10, 20) // bridges the gap
	if len(l) != 1 || l[0] != (extent{0, 30}) {
		t.Fatalf("merge failed: %v", l)
	}
}

func TestInsertOverlapping(t *testing.T) {
	var l extList
	l = l.insert(5, 15)
	l = l.insert(0, 10)
	l = l.insert(12, 20)
	if len(l) != 1 || l[0] != (extent{0, 20}) {
		t.Fatalf("overlap merge failed: %v", l)
	}
}

func TestInsertEmptyRangeNoop(t *testing.T) {
	var l extList
	l = l.insert(5, 5)
	if len(l) != 0 {
		t.Fatalf("empty insert created extent: %v", l)
	}
}

func TestSubtractSplits(t *testing.T) {
	var l extList
	l = l.insert(0, 100)
	l = l.subtract(40, 60)
	if len(l) != 2 || l[0] != (extent{0, 40}) || l[1] != (extent{60, 100}) {
		t.Fatalf("split failed: %v", l)
	}
}

func TestSubtractEdges(t *testing.T) {
	var l extList
	l = l.insert(10, 20)
	if got := l.subtract(0, 10); len(got) != 1 || got[0] != (extent{10, 20}) {
		t.Fatalf("subtract before: %v", got)
	}
	if got := l.subtract(10, 20); len(got) != 0 {
		t.Fatalf("subtract exact: %v", got)
	}
	if got := l.subtract(15, 25); len(got) != 1 || got[0] != (extent{10, 15}) {
		t.Fatalf("subtract tail: %v", got)
	}
}

func TestMissing(t *testing.T) {
	var l extList
	l = l.insert(10, 20)
	l = l.insert(30, 40)
	gaps := l.missing(0, 50)
	want := []extent{{0, 10}, {20, 30}, {40, 50}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps %v, want %v", gaps, want)
		}
	}
	if !l.contains(12, 18) || l.contains(12, 22) {
		t.Fatal("contains wrong")
	}
	if !l.overlaps(15, 35) || l.overlaps(20, 30) {
		t.Fatal("overlaps wrong")
	}
}

// insert and subtract work in place: extending the last extent, and adding
// one past it into spare capacity, allocate nothing.
func TestExtListInPlaceAllocatesNothing(t *testing.T) {
	l := extList{}.insert(0, 10).insert(20, 30)
	extend := func() {
		last := l[len(l)-1]
		l = l.insert(last.End, last.End+10)
	}
	if allocs := testing.AllocsPerRun(100, extend); allocs != 0 {
		t.Errorf("extending the last extent: %v allocations, want 0", allocs)
	}
	appendPast := func() {
		past := l[len(l)-1].End + 10
		l = l.insert(past, past+10)
		l = l.subtract(past, past+10)
	}
	if allocs := testing.AllocsPerRun(100, appendPast); allocs != 0 {
		t.Errorf("appending past the last extent: %v allocations, want 0", allocs)
	}
	if len(l) != 2 || l[0] != (extent{0, 10}) || l[1] != (extent{20, 30 + 101*10}) {
		t.Fatalf("list after the runs: %v", l)
	}
}

// Property: extList agrees with a bitmap reference model under a random op
// sequence.
func TestPropertyExtListMatchesBitmap(t *testing.T) {
	const space = 512
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var l extList
		ref := make([]bool, space)
		for s := 0; s < int(steps%64)+1; s++ {
			a, b := rng.Int63n(space), rng.Int63n(space)
			if a > b {
				a, b = b, a
			}
			if rng.Intn(2) == 0 {
				l = l.insert(a, b)
				for i := a; i < b; i++ {
					ref[i] = true
				}
			} else {
				l = l.subtract(a, b)
				for i := a; i < b; i++ {
					ref[i] = false
				}
			}
		}
		// Compare membership byte by byte via missing().
		for i := int64(0); i < space; i++ {
			covered := len(l.missing(i, i+1)) == 0
			if covered != ref[i] {
				return false
			}
		}
		// Structural invariants: sorted, merged, non-empty extents.
		for i, e := range l {
			if e.Off >= e.End {
				return false
			}
			if i > 0 && l[i-1].End >= e.Off {
				return false
			}
		}
		// total() agrees with the reference count.
		var want int64
		for _, v := range ref {
			if v {
				want++
			}
		}
		return l.total() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
