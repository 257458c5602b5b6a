// Package metrics is a dependency-free counters/gauges/histograms
// registry for operating the engine and the network server. Metrics are
// registered lazily by name plus an optional label set, updated with
// atomic operations on the hot paths, and exposed in the Prometheus text
// format (via Registry.WriteText) so any scraper — or a human reading
// the `\stats` output — can consume them.
//
// The registry deliberately implements only what the repository needs:
// monotonic counters, settable gauges, fixed-bucket latency histograms,
// and callback metrics whose value is read at exposition time (used for
// stats another subsystem already tracks, like the mask cache's hit and
// miss counts).
package metrics

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error and is ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning 100µs to ~100s exponentially — wide enough for both cached
// retrievals and guarded runaway queries.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram counts observations into fixed upper-bound buckets and
// tracks their sum; Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

// Observe records one observation (typically seconds of latency).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one registered metric instance (a family member with a
// concrete label set).
type series struct {
	name   string // family name
	labels string // rendered {k="v",…} or ""
	ctr    *Counter
	gau    *Gauge
	his    *Histogram
	fn     func() float64
}

// Registry holds metric families. The zero value is not usable; create
// one with NewRegistry. All methods are safe for concurrent use; the
// get-or-create methods are cheap enough for per-statement paths but
// callers on hot loops should retain the returned handle.
type Registry struct {
	mu     sync.Mutex
	kinds  map[string]Kind    // family name → kind
	series map[string]*series // name+labels → series
	order  []string           // registration order of series keys
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  make(map[string]Kind),
		series: make(map[string]*series),
	}
}

// renderLabels renders alternating key, value pairs as {k="v",…};
// it panics on an odd count (a programming error).
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: odd label list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// lookup returns the series for (name, labels), creating it with mk if
// absent, and panics if the family already exists with another kind.
func (r *Registry) lookup(name string, kind Kind, labels []string, mk func() *series) *series {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, k, kind))
	}
	if s, ok := r.series[key]; ok {
		return s
	}
	r.kinds[name] = kind
	s := mk()
	s.name = name
	s.labels = renderLabels(labels)
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns the counter for name and the alternating key, value
// label pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	s := r.lookup(name, KindCounter, labels, func() *series { return &series{ctr: &Counter{}} })
	return s.ctr
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	s := r.lookup(name, KindGauge, labels, func() *series { return &series{gau: &Gauge{}} })
	return s.gau
}

// Histogram returns the histogram for name and labels with DefBuckets,
// creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	s := r.lookup(name, KindHistogram, labels, func() *series {
		return &series{his: &Histogram{bounds: DefBuckets, counts: make([]atomic.Int64, len(DefBuckets)+1)}}
	})
	return s.his
}

// LazyCounter returns a handle on the unlabelled counter name that
// registers it on its first call — so the exposition lists it only once
// used — and afterwards returns it without a lookup.
func (r *Registry) LazyCounter(name string) func() *Counter {
	return sync.OnceValue(func() *Counter { return r.Counter(name) })
}

// Vec hands out the series of one family by the value of a single label,
// registering each on first use, so the exposition lists only the values
// seen. After that With is a lock-free read that allocates nothing: the
// handle for per-request paths, which would otherwise render the label
// set and take the registry lock on every call.
type Vec[T any] struct {
	mk    func(value string) *T
	mu    sync.Mutex                    // serializes first uses
	byVal atomic.Pointer[map[string]*T] // immutable; replaced on first use of a value
}

func newVec[T any](mk func(value string) *T) *Vec[T] {
	v := &Vec[T]{mk: mk}
	v.byVal.Store(&map[string]*T{})
	return v
}

// CounterVec returns the counters of family name keyed by label.
func (r *Registry) CounterVec(name, label string) *Vec[Counter] {
	return newVec(func(v string) *Counter { return r.Counter(name, label, v) })
}

// HistogramVec returns the histograms of family name keyed by label.
func (r *Registry) HistogramVec(name, label string) *Vec[Histogram] {
	return newVec(func(v string) *Histogram { return r.Histogram(name, label, v) })
}

// With returns the series whose label has value, registering it on first
// use.
func (v *Vec[T]) With(value string) *T {
	if s, ok := (*v.byVal.Load())[value]; ok {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.byVal.Load()
	if s, ok := old[value]; ok {
		return s
	}
	next := maps.Clone(old)
	next[value] = v.mk(value)
	v.byVal.Store(&next)
	return next[value]
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time; use it for monotonic stats another subsystem already
// tracks. Re-registering the same (name, labels) replaces the callback.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	s := r.lookup(name, KindCounter, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	s := r.lookup(name, KindGauge, labels, func() *series { return &series{} })
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes every registered metric in the Prometheus text
// exposition format, families sorted by name, series in registration
// order within a family.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	keys := make([]string, len(r.order))
	copy(keys, r.order)
	byFamily := make(map[string][]*series)
	for _, k := range keys {
		s := r.series[k]
		byFamily[s.name] = append(byFamily[s.name], s)
	}
	kinds := make(map[string]Kind, len(r.kinds))
	for n, k := range r.kinds {
		kinds[n] = k
	}
	r.mu.Unlock()

	families := make([]string, 0, len(byFamily))
	for n := range byFamily {
		families = append(families, n)
	}
	sort.Strings(families)
	for _, fam := range families {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, kinds[fam]); err != nil {
			return err
		}
		for _, s := range byFamily[fam] {
			if err := s.write(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// write renders one series. Histograms expand to the cumulative
// _bucket/_sum/_count triplet.
func (s *series) write(w io.Writer) error {
	switch {
	case s.his != nil:
		var cum int64
		for i, b := range s.his.bounds {
			cum += s.his.counts[i].Load()
			if err := histLine(w, s.name, s.labels, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += s.his.counts[len(s.his.bounds)].Load()
		if err := histLine(w, s.name, s.labels, "+Inf", cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatFloat(s.his.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, s.his.Count())
		return err
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatFloat(s.fn()))
		return err
	case s.ctr != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.ctr.Value())
		return err
	case s.gau != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.gau.Value())
		return err
	}
	return nil
}

// histLine writes one cumulative bucket line, splicing le into any
// existing label set.
func histLine(w io.Writer, name, labels, le string, cum int64) error {
	var lab string
	if labels == "" {
		lab = `{le="` + le + `"}`
	} else {
		lab = labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lab, cum)
	return err
}

// Text returns WriteText's output as a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
