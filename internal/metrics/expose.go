package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format version this package writes.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text exposition
// format: families sorted by name, each with HELP and TYPE lines, series in
// creation order, histograms as cumulative le-buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.snapshotSeries() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, ""), s.c.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.values, ""), s.g.Value())
		return err
	case KindHistogram:
		var cum uint64
		for i := range s.h.buckets {
			cum += s.h.buckets[i].Load()
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labels, s.values, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, labelString(f.labels, s.values, ""), formatFloat(s.h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n",
			f.name, labelString(f.labels, s.values, ""), s.h.Count())
		return err
	}
	return nil
}

// labelString renders {k="v",...}, appending le when non-empty; "" when the
// series carries no labels at all.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation, +Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		_ = r.WritePrometheus(w)
	})
}

// Snapshot is a point-in-time JSON-marshalable view of a registry, embedded
// in bench reports (BENCH_*.json).
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Total sums the values of a counter or gauge family over all its series;
// an absent family totals 0.
func (s Snapshot) Total(name string) float64 {
	var total float64
	for _, fam := range s.Metrics {
		if fam.Name == name {
			for _, ser := range fam.Series {
				total += ser.Value
			}
		}
	}
	return total
}

// HistTotal sums a histogram family's observations over all its series:
// the sum of the observed values and how many there were.
func (s Snapshot) HistTotal(name string) (sum float64, count uint64) {
	for _, fam := range s.Metrics {
		if fam.Name == name {
			for _, ser := range fam.Series {
				sum += ser.Sum
				count += ser.Count
			}
		}
	}
	return sum, count
}

// MetricSnapshot is one family's state.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series' state.  Value holds counters and
// gauges; Count/Sum/Max/Buckets hold histograms.
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Max     float64           `json:"max,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.  The +Inf bucket is
// omitted (JSON has no Inf); its cumulative count equals Count.
type BucketSnapshot struct {
	LE         float64 `json:"le"`
	Cumulative uint64  `json:"cumulative"`
}

// Snapshot captures the registry's current state.  Series with zero
// observations are included, so a snapshot also documents the inventory.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range f.snapshotSeries() {
			ss := SeriesSnapshot{}
			if len(f.labels) > 0 {
				ss.Labels = make(map[string]string, len(f.labels))
				for i, n := range f.labels {
					ss.Labels[n] = s.values[i]
				}
			}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.c.Value())
			case KindGauge:
				ss.Value = float64(s.g.Value())
			case KindHistogram:
				ss.Count = s.h.Count()
				ss.Sum = s.h.Sum()
				ss.Max = s.h.Max()
				var cum uint64
				for i := range s.h.buckets {
					cum += s.h.buckets[i].Load()
					le := math.Inf(+1)
					if i < len(s.h.bounds) {
						le = s.h.bounds[i]
					}
					if math.IsInf(le, +1) {
						// JSON has no Inf; the +Inf bucket equals Count, so
						// skip it and let readers close the distribution.
						continue
					}
					ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: le, Cumulative: cum})
				}
			}
			ms.Series = append(ms.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, ms)
	}
	return snap
}
