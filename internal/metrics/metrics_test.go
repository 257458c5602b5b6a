package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "kind", "retrieve")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "kind", "retrieve"); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	g := r.Gauge("conns_active")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	h.Observe(0.0002)
	h.Observe(0.0002)
	h.Observe(3)
	h.Observe(1000) // beyond the last bound → +Inf bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.0004+3+1000; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	text := r.Text()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.00025"} 2`,
		`lat_seconds_bucket{le="5"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_count 4`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestFuncMetricsAndText(t *testing.T) {
	r := NewRegistry()
	hits := 0.0
	r.CounterFunc("cache_hits_total", func() float64 { return hits })
	r.GaugeFunc("cache_entries", func() float64 { return 2 })
	r.Counter("b_total", "kind", "x").Inc()
	r.Counter("b_total", "kind", "y").Add(2)
	hits = 9
	text := r.Text()
	for _, want := range []string{
		"# TYPE cache_hits_total counter",
		"cache_hits_total 9",
		"cache_entries 2",
		`b_total{kind="x"} 1`,
		`b_total{kind="y"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Families are sorted: b_total precedes cache_entries.
	if strings.Index(text, "b_total") > strings.Index(text, "cache_entries") {
		t.Fatalf("families not sorted:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "q", `say "hi"\`+"\n").Inc()
	text := r.Text()
	if !strings.Contains(text, `e_total{q="say \"hi\"\\\n"} 1`) {
		t.Fatalf("unescaped label:\n%s", text)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind conflict")
		}
	}()
	r.Gauge("m")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c_total", "w", string(rune('a'+w%4))).Inc()
				r.Histogram("h_seconds").Observe(0.001)
				r.Gauge("g").Add(1)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c_total", "w", l).Value()
	}
	if total != 8000 {
		t.Fatalf("counters lost updates: %d", total)
	}
	if got := r.Histogram("h_seconds").Count(); got != 8000 {
		t.Fatalf("histogram lost updates: %d", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge lost updates: %d", got)
	}
}

func TestVecAndLazyCounter(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("reqs_total", "kind")
	lat := r.HistogramVec("lat_seconds", "kind")
	errs := r.LazyCounter("errs_total")
	if text := r.Text(); text != "" {
		t.Fatalf("handles registered series before use:\n%s", text)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reqs.With(string(rune('a' + w%4))).Inc()
			}
		}(w)
	}
	wg.Wait()
	lat.With("a").Observe(0.001)
	errs().Inc()
	if reqs.With("a") != r.Counter("reqs_total", "kind", "a") || errs() != r.Counter("errs_total") {
		t.Fatal("handles and registry lookups disagree")
	}
	text := r.Text()
	for _, want := range []string{
		`reqs_total{kind="a"} 2000`,
		`reqs_total{kind="d"} 2000`,
		`lat_seconds_count{kind="a"} 1`,
		"errs_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `lat_seconds_count{kind="b"}`) {
		t.Fatalf("unused label value exposed:\n%s", text)
	}
}
