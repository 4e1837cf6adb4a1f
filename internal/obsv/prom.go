package obsv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is a minimal Prometheus text exposition (format 0.0.4)
// writer: enough for the simulation service to expose counters, gauges
// and histograms that a stock Prometheus scraper ingests, without pulling
// in a client library. Metric order is the registration order and label
// sets are rendered sorted, so a scrape of an idle server is
// byte-deterministic.

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: Observe(v) increments every bucket whose upper bound is ≥ v,
// plus the implicit +Inf bucket, the count and the sum. Safe for
// concurrent use.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds, +Inf excluded
	buckets []uint64  // len(bounds)+1; last is +Inf
	sum     float64
	count   uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot returns cumulative bucket counts, the sum and the count.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.buckets))
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		cum[i] = acc
	}
	return h.bounds, cum, h.sum, h.count
}

// MetricsWriter renders one exposition page. It is write-once: build it,
// add metrics in the order they should appear, then flush with Close.
type MetricsWriter struct {
	bw  *bufio.Writer
	err error
}

// NewMetricsWriter wraps w for one exposition page.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{bw: bufio.NewWriter(w)}
}

// ContentType is the HTTP Content-Type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func (m *MetricsWriter) header(name, help, typ string) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func renderLabels(labels map[string]string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra[i], extra[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter emits one counter sample (with optional labels).
func (m *MetricsWriter) Counter(name, help string, v float64, labels map[string]string) {
	m.header(name, help, "counter")
	m.sample(name, labels, v)
}

// Gauge emits one gauge sample.
func (m *MetricsWriter) Gauge(name, help string, v float64, labels map[string]string) {
	m.header(name, help, "gauge")
	m.sample(name, labels, v)
}

// MultiGauge emits one gauge family with several label sets; rows render
// in the given order.
func (m *MetricsWriter) MultiGauge(name, help string, rows []LabeledValue) {
	m.header(name, help, "gauge")
	for _, r := range rows {
		m.sample(name, r.Labels, r.Value)
	}
}

// LabeledValue is one sample row of a multi-sample family.
type LabeledValue struct {
	Labels map[string]string
	Value  float64
}

func (m *MetricsWriter) sample(name string, labels map[string]string, v float64) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.bw, "%s%s %s\n", name, renderLabels(labels), formatValue(v))
}

// HistogramMetric emits a histogram family from h.
func (m *MetricsWriter) HistogramMetric(name, help string, h *Histogram) {
	m.header(name, help, "histogram")
	bounds, cum, sum, count := h.snapshot()
	for i, ub := range bounds {
		if m.err != nil {
			return
		}
		_, m.err = fmt.Fprintf(m.bw, "%s_bucket{le=%q} %d\n", name, formatValue(ub), cum[i])
	}
	if m.err == nil {
		_, m.err = fmt.Fprintf(m.bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
	}
	if m.err == nil {
		_, m.err = fmt.Fprintf(m.bw, "%s_sum %s\n", name, formatValue(sum))
	}
	if m.err == nil {
		_, m.err = fmt.Fprintf(m.bw, "%s_count %d\n", name, count)
	}
}

// Close flushes the page and reports the first write error.
func (m *MetricsWriter) Close() error {
	if m.err != nil {
		return m.err
	}
	return m.bw.Flush()
}

// ValidateProm parses a Prometheus text-format page strictly enough for
// tests: every non-comment line must be `name[{labels}] value`, every
// sample's base family must have had a preceding # TYPE line, and values
// must parse as floats. Returns the number of samples seen.
func ValidateProm(page []byte) (samples int, err error) {
	typed := map[string]string{}
	lines := strings.Split(string(page), "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return samples, fmt.Errorf("line %d: unterminated label set: %s", ln+1, line)
			}
			rest = rest[end+1:]
		}
		rest = strings.TrimSpace(rest)
		// Histograms time-series use _bucket/_sum/_count suffixes on the
		// declared family name.
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(name, suf)]; ok && t == "histogram" && strings.HasSuffix(name, suf) {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := typed[base]; !ok {
			return samples, fmt.Errorf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		// A timestamp may follow the value; the service never emits one.
		val := strings.Fields(rest)
		if len(val) == 0 {
			return samples, fmt.Errorf("line %d: missing value: %s", ln+1, line)
		}
		if val[0] != "+Inf" && val[0] != "-Inf" && val[0] != "NaN" {
			if _, perr := strconv.ParseFloat(val[0], 64); perr != nil {
				return samples, fmt.Errorf("line %d: bad value %q: %v", ln+1, val[0], perr)
			}
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples in page")
	}
	return samples, nil
}
