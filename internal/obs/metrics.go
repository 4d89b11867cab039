package obs

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a named registry of counters, gauges, timers and histograms.
// Registration (the name → metric lookup) takes a mutex; the metrics
// themselves are lock-free atomics, safe for concurrent hot paths.
// Instrumented packages cache the returned pointers in package-level
// variables so the map lookup never sits on a hot path.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the instrumented packages use.
var Default = NewMetrics()

// Progress gauge names: a long sweep publishes its rows-done/rows-total
// pair under these registry names and the introspection server's
// /progress endpoint reads them back.
const (
	ProgressDone  = "progress.done"
	ProgressTotal = "progress.total"
)

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (progress gauges count up from concurrent workers).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates monotonic wall-clock observations. The (count, total)
// pair is kept consistent with a seqlock: a writer holds the sequence odd
// while it updates both fields, and a reader retries until the sequence
// is even and unchanged across its two loads — so a snapshot can never
// pair one observation's count with a different observation's total.
type Timer struct {
	seq   atomic.Uint64 // odd while a writer owns the pair
	n, ns atomic.Int64  // written only while seq is held odd
}

// lock spins until it owns the write side (sequence odd).
func (t *Timer) lock() {
	for i := 0; ; i++ {
		s := t.seq.Load()
		if s&1 == 0 && t.seq.CompareAndSwap(s, s+1) {
			return
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

func (t *Timer) unlock() { t.seq.Add(1) }

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.lock()
	t.n.Add(1)
	t.ns.Add(int64(d))
	t.unlock()
}

// Start begins a measurement; the returned func stops and records it.
func (t *Timer) Start() func() {
	t0 := time.Now()
	return func() { t.Observe(time.Since(t0)) }
}

// Stat returns a consistent (count, total) pair: both values come from
// the same set of completed observations.
func (t *Timer) Stat() (count int64, total time.Duration) {
	for i := 0; ; i++ {
		s := t.seq.Load()
		if s&1 == 0 {
			n, ns := t.n.Load(), t.ns.Load()
			if t.seq.Load() == s {
				return n, time.Duration(ns)
			}
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
}

// Count returns the number of observations; Total their summed duration.
func (t *Timer) Count() int64 { n, _ := t.Stat(); return n }
func (t *Timer) Total() time.Duration {
	_, d := t.Stat()
	return d
}

// reset zeroes the pair under the write lock.
func (t *Timer) reset() {
	t.lock()
	t.n.Store(0)
	t.ns.Store(0)
	t.unlock()
}

// Histogram counts observations into fixed buckets: bucket i counts values
// v ≤ bounds[i]; the final implicit bucket counts the rest. Observations
// are assumed non-negative (latencies, sizes); the running maximum is
// tracked so overflow-bucket quantiles stay meaningful.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(h.bounds)].Add(1)
}

// LatencyBounds is the shared log-bucket layout of the latency
// histograms: powers of four from 256ns to ~1.07s, twelve bounds plus
// the implicit overflow bucket. One fixed layout keeps every percentile
// snapshot and the Prometheus exposition comparable across metrics,
// runs, and machines.
var LatencyBounds = []int64{
	1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18,
	1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28, 1 << 30,
}

// Counter returns (registering on first use) the named counter.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Timer returns (registering on first use) the named timer.
func (m *Metrics) Timer(name string) *Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.timers[name]
	if !ok {
		t = &Timer{}
		m.timers[name] = t
	}
	return t
}

// Histogram returns (registering on first use) the named histogram. The
// bounds of the first registration win; later calls may omit them.
func (m *Metrics) Histogram(name string, bounds ...int64) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		bs := append([]int64(nil), bounds...)
		h = &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
		m.hists[name] = h
	}
	return h
}

// LatencyHistogram returns (registering on first use) a histogram with
// the shared log-bucketed LatencyBounds layout, recording nanoseconds.
func (m *Metrics) LatencyHistogram(name string) *Histogram {
	return m.Histogram(name, LatencyBounds...)
}

// Reset zeroes every registered metric. Registrations (and cached
// pointers) stay valid.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.counters {
		c.v.Store(0)
	}
	for _, g := range m.gauges {
		g.v.Store(0)
	}
	for _, t := range m.timers {
		t.reset()
	}
	for _, h := range m.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// TimerStat is a timer's exported form.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MeanNS  int64 `json:"mean_ns"`
}

// HistStat is a histogram's exported form. Buckets[i] counts values ≤
// Bounds[i]; the final extra bucket counts the overflow. Max is the
// largest value observed (0 when empty).
type HistStat struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
}

// Quantile returns the deterministic q-quantile estimate of the recorded
// distribution: the least bucket upper bound whose cumulative count
// reaches ⌈q·count⌉, clamped to the observed maximum (a bucket bound can
// lie above every value the bucket holds). A rank landing in the
// overflow bucket reports the observed maximum; an empty histogram
// reports 0. Being a pure function
// of the bucket counts, the estimate is identical for identical
// snapshots — the property the ledger and obsdiff comparisons rely on.
func (h HistStat) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum int64
	for i, b := range h.Bounds {
		if i < len(h.Buckets) {
			cum += h.Buckets[i]
		}
		if cum >= rank {
			return min(b, h.Max)
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of a registry. Map keys serialize in
// sorted order, so marshaling a snapshot is deterministic for fixed
// values.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Timers     map[string]TimerStat `json:"timers,omitempty"`
	Histograms map[string]HistStat  `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (m *Metrics) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{}
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for k, c := range m.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(m.gauges))
		for k, g := range m.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(m.timers) > 0 {
		s.Timers = make(map[string]TimerStat, len(m.timers))
		for k, t := range m.timers {
			n, total := t.Stat()
			st := TimerStat{Count: n, TotalNS: int64(total)}
			if st.Count > 0 {
				st.MeanNS = st.TotalNS / st.Count
			}
			s.Timers[k] = st
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]HistStat, len(m.hists))
		for k, h := range m.hists {
			st := HistStat{
				Count:   h.count.Load(),
				Sum:     h.sum.Load(),
				Max:     h.max.Load(),
				Bounds:  append([]int64(nil), h.bounds...),
				Buckets: make([]int64, len(h.buckets)),
			}
			for i := range h.buckets {
				st.Buckets[i] = h.buckets[i].Load()
			}
			s.Histograms[k] = st
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (deterministic: map keys
// sort).
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
