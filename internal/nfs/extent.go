package nfs

import "slices"

// extent is a half-open byte range [Off, End).
type extent struct {
	Off, End int64
}

func (e extent) len() int64 { return e.End - e.Off }

// extList is a sorted, merged list of non-overlapping extents.  It tracks
// page-cache residency and dirtiness at byte granularity.
type extList []extent

// insert adds [off, end), merging with neighbours.  It works in place: the
// result may share l's backing array, so l must not be used afterwards.
func (l extList) insert(off, end int64) extList {
	if off >= end {
		return l
	}
	// l[i:j] are the extents that touch or overlap [off, end).
	i := 0
	for i < len(l) && l[i].End < off {
		i++
	}
	j := i
	for j < len(l) && l[j].Off <= end {
		j++
	}
	if i == j {
		return slices.Insert(l, i, extent{off, end})
	}
	l[i] = extent{min(l[i].Off, off), max(l[j-1].End, end)}
	return append(l[:i+1], l[j:]...)
}

// subtract removes [off, end).  Like insert it works in place.
func (l extList) subtract(off, end int64) extList {
	if off >= end {
		return l
	}
	// l[i:j] are the extents that overlap [off, end).
	i := 0
	for i < len(l) && l[i].End <= off {
		i++
	}
	j := i
	for j < len(l) && l[j].Off < end {
		j++
	}
	if i == j {
		return l
	}
	if j == i+1 && l[i].Off < off && l[i].End > end {
		// [off, end) splits one extent in two.
		l = slices.Insert(l, i+1, extent{end, l[i].End})
		l[i].End = off
		return l
	}
	if l[i].Off < off {
		l[i].End = off
		i++
	}
	if l[j-1].End > end {
		l[j-1].Off = end
		j--
	}
	return append(l[:i], l[j:]...)
}

// missing returns the gaps of [off, end) not covered by the list.
func (l extList) missing(off, end int64) []extent {
	var gaps []extent
	cur := off
	for _, e := range l {
		if e.End <= cur {
			continue
		}
		if e.Off >= end {
			break
		}
		if e.Off > cur {
			gaps = append(gaps, extent{cur, e.Off})
		}
		if e.End > cur {
			cur = e.End
		}
		if cur >= end {
			return gaps
		}
	}
	if cur < end {
		gaps = append(gaps, extent{cur, end})
	}
	return gaps
}

// contains reports whether [off, end) is fully covered.
func (l extList) contains(off, end int64) bool {
	return len(l.missing(off, end)) == 0
}

// overlaps reports whether any byte of [off, end) is covered.
func (l extList) overlaps(off, end int64) bool {
	for _, e := range l {
		if e.Off < end && off < e.End {
			return true
		}
	}
	return false
}

// total returns the covered byte count.
func (l extList) total() int64 {
	var n int64
	for _, e := range l {
		n += e.len()
	}
	return n
}

// first returns the lowest extent, if any.
func (l extList) first() (extent, bool) {
	if len(l) == 0 {
		return extent{}, false
	}
	return l[0], true
}
