// Package obs is the serving stack's observability toolkit. It is
// dependency-free (standard library only) and has four parts:
//
//   - a metrics registry (counters, gauges, fixed-bucket histograms, all
//     with optional labels) that renders a correct Prometheus text
//     exposition — `# HELP`/`# TYPE` metadata, cumulative
//     `_bucket`/`_sum`/`_count` histogram samples, label escaping, and the
//     text-format content type;
//   - request/job tracing: trace IDs carried through context.Context and a
//     bounded in-memory ring of span records (name, start, duration,
//     attributes) queryable by trace ID;
//   - structured logging helpers over log/slog (level + format flags);
//   - an admin mux serving net/http/pprof and a runtime/metrics snapshot.
//
// The instrumented layers (internal/runner, internal/server) accept an
// *Observer; every hook is nil-safe so uninstrumented callers (the CLIs,
// library users) pay only a pointer test.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are the default latency histogram bounds, in seconds. They
// span sub-millisecond cache hits through multi-second artifact matrices.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: its metadata plus every labelled child.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64      // histogram families only
	fn      func() float64 // scrape-time value (Func families; unlabeled)

	mu       sync.Mutex
	children map[string]*child
	order    []string // child keys in first-use order
}

// child is one labelled time series within a family.
type child struct {
	values []string
	// counter: integer count; gauge: math.Float64bits of the value.
	bits atomic.Uint64
	hist *histState
}

type histState struct {
	bounds  []float64 // sorted upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func (h *histState) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry holds metric families and renders them in registration order.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register returns the named family, creating it on first use. Re-registering
// an existing name with a different type panics: that is a programming error
// that would corrupt the exposition.
func (r *Registry) register(name, help string, typ metricType, labels, buckets []float64, labelNames []string, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   labelNames,
		buckets:  buckets,
		fn:       fn,
		children: make(map[string]*child),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or fetches) a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterType, nil, nil, labels, nil)}
}

// Gauge registers (or fetches) a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeType, nil, nil, labels, nil)}
}

// Histogram registers (or fetches) a histogram family. nil buckets selects
// DefBuckets. Bounds are sorted and deduplicated.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != bounds[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &HistogramVec{f: r.register(name, help, histogramType, nil, uniq, labels, nil)}
}

// CounterFunc registers an unlabeled counter whose value is computed at
// scrape time (for monotone totals owned by another subsystem).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, counterType, nil, nil, nil, fn)
}

// GaugeFunc registers an unlabeled gauge whose value is computed at scrape
// time (queue depths, ratios, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, gaugeType, nil, nil, nil, fn)
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		if f.typ == histogramType {
			c.hist = &histState{
				bounds: f.buckets,
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With resolves one labelled counter.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{c: v.f.child(values)} }

// Counter is a monotonically increasing integer counter.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.c.bits.Add(1) }

// Add adds n (n < 0 panics: counters are monotone).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.c.bits.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() int64 { return int64(c.c.bits.Load()) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With resolves one labelled gauge.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{c: v.f.child(values)} }

// Gauge is a settable float value.
type Gauge struct{ c *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.c.bits.Load()) }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With resolves one labelled histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{c: v.f.child(values)}
}

// Histogram is a fixed-bucket distribution.
type Histogram struct{ c *child }

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.c.hist.observe(v) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.c.hist.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.c.hist.sumBits.Load()) }

// --- exposition --------------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text format, each
// preceded by its # HELP and # TYPE lines.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, _ = io.WriteString(w, b.String())
}

// Handler returns an http.Handler serving the exposition with the
// text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(http.StatusOK)
		r.WritePrometheus(w)
	})
}

func (f *family) write(b *strings.Builder) {
	pw := PromWriter{W: b}
	pw.Family(f.name, f.typ.String(), f.help, f.labels...)
	if f.fn != nil {
		pw.Float(f.fn())
		return
	}
	f.mu.Lock()
	children := make([]*child, 0, len(f.order))
	for _, key := range f.order {
		children = append(children, f.children[key])
	}
	f.mu.Unlock()
	for _, c := range children {
		switch f.typ {
		case counterType:
			pw.Uint(c.bits.Load(), c.values...)
		case gaugeType:
			pw.Float(math.Float64frombits(c.bits.Load()), c.values...)
		case histogramType:
			var cum uint64
			for i, bound := range c.hist.bounds {
				cum += c.hist.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", formatFloat(bound)), cum)
			}
			cum += c.hist.counts[len(c.hist.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.values, "", ""), formatFloat(math.Float64frombits(c.hist.sumBits.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, c.values, "", ""), c.hist.count.Load())
		}
	}
}

// PromWriter writes Prometheus text exposition families: the registry's
// own, and documents whose samples are not registry metrics (a run's
// timeline, a site profile), with one escaping and number format.
type PromWriter struct {
	W      io.Writer
	name   string
	labels []string
}

// Family starts a metric family: it writes the # HELP and # TYPE lines
// and fixes the label names of the samples that follow.
func (p *PromWriter) Family(name, typ, help string, labels ...string) {
	p.name, p.labels = name, labels
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Float writes one sample of the current family; values pair with the
// family's label names.
func (p *PromWriter) Float(v float64, values ...string) {
	fmt.Fprintf(p.W, "%s%s %s\n", p.name, labelString(p.labels, values, "", ""), formatFloat(v))
}

// Uint writes one integer sample of the current family.
func (p *PromWriter) Uint(v uint64, values ...string) {
	fmt.Fprintf(p.W, "%s%s %d\n", p.name, labelString(p.labels, values, "", ""), v)
}

// labelString renders {k="v",...}, appending the optional extra pair (used
// for histogram le bounds). Empty when there are no pairs at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
