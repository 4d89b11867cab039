package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the exact bucket semantics: bucket i
// counts v ≤ bounds[i], the final bucket the overflow, and the running
// max is kept so overflow quantiles stay meaningful.
func TestHistogramBucketEdges(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("edges", 10, 100)
	for _, v := range []int64{
		0,   // below the first bound: bucket 0
		1,   // bucket 0
		10,  // exactly the first bound: still bucket 0 (≤ semantics)
		11,  // just past: bucket 1
		100, // exactly the last bound: bucket 1
		101, // overflow
		999, // overflow, new max
	} {
		h.Observe(v)
	}
	hs := m.Snapshot().Histograms["edges"]
	want := []int64{3, 2, 2}
	for i, w := range want {
		if hs.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, hs.Buckets[i], w, hs)
		}
	}
	if hs.Count != 7 || hs.Max != 999 {
		t.Errorf("count=%d max=%d, want 7, 999", hs.Count, hs.Max)
	}
}

func TestHistogramMaxEmpty(t *testing.T) {
	m := NewMetrics()
	m.Histogram("empty", 10)
	hs := m.Snapshot().Histograms["empty"]
	if hs.Max != 0 || hs.Quantile(0.99) != 0 {
		t.Errorf("empty histogram: max=%d p99=%d, want 0, 0", hs.Max, hs.Quantile(0.99))
	}
}

// TestQuantileDeterministic checks the estimator against a hand-computed
// distribution: quantiles are the least bucket bound reaching the rank,
// and ranks landing in the overflow bucket report the observed max.
func TestQuantileDeterministic(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("q", 10, 100, 1000)
	// 90 observations ≤ 10, 9 in (10,100], 1 overflow of 5000.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(5000)
	hs := m.Snapshot().Histograms["q"]
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 10},   // rank 50 in bucket 0
		{0.90, 10},   // rank 90 exactly exhausts bucket 0
		{0.99, 100},  // rank 99 in bucket 1
		{1.00, 5000}, // rank 100 overflows: the max
		{0.00, 10},   // rank clamps up to 1
	}
	for _, c := range cases {
		if got := hs.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	// The estimate is a pure function of the snapshot: identical twice.
	if a, b := hs.Quantile(0.99), m.Snapshot().Histograms["q"].Quantile(0.99); a != b {
		t.Errorf("quantile not deterministic: %d vs %d", a, b)
	}
}

// TestQuantileNeverExceedsMax: a bucket's upper bound can lie far above
// every value the bucket holds, so each percentile is clamped to the
// observed maximum — and stays a pure function of the snapshot.
func TestQuantileNeverExceedsMax(t *testing.T) {
	cases := []struct {
		name   string
		bounds []int64
		obs    []int64
	}{
		{"single value below first bound", []int64{10, 100}, []int64{3}},
		{"max inside a wide bucket", []int64{10, 100, 1000}, []int64{5, 40, 54}},
		{"all in one bucket", []int64{100}, []int64{60, 61, 62, 63}},
		{"overflow max", []int64{10}, []int64{1, 2, 500}},
		{"latency layout", LatencyBounds, []int64{300, 40_000, 54_200_000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMetrics()
			h := m.Histogram("h", c.bounds...)
			for _, v := range c.obs {
				h.Observe(v)
			}
			hs := m.Snapshot().Histograms["h"]
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
				got := hs.Quantile(q)
				if got > hs.Max {
					t.Errorf("Quantile(%.2f) = %d above max %d", q, got, hs.Max)
				}
				if again := m.Snapshot().Histograms["h"].Quantile(q); again != got {
					t.Errorf("Quantile(%.2f) not deterministic: %d vs %d", q, got, again)
				}
			}
			if got := hs.Quantile(1); got != hs.Max {
				t.Errorf("Quantile(1) = %d, want the max %d", got, hs.Max)
			}
		})
	}
}

// TestLatencyHistogramLayout pins the shared log-bucket layout and the
// bounds-copy semantics of the snapshot.
func TestLatencyHistogramLayout(t *testing.T) {
	m := NewMetrics()
	h := m.LatencyHistogram("lat")
	if m.LatencyHistogram("lat") != h {
		t.Fatal("second registration returned a different histogram")
	}
	h.Observe(int64(300 * time.Nanosecond)) // bucket 1 (≤1024)
	h.Observe(int64(2 * time.Second))       // overflow (>2^30 ns)
	hs := m.Snapshot().Histograms["lat"]
	if len(hs.Bounds) != len(LatencyBounds) || hs.Bounds[0] != 256 || hs.Bounds[len(hs.Bounds)-1] != 1<<30 {
		t.Fatalf("bounds = %v, want the LatencyBounds layout", hs.Bounds)
	}
	if hs.Buckets[1] != 1 || hs.Buckets[len(hs.Buckets)-1] != 1 {
		t.Errorf("buckets = %v, want one in ≤1024 and one overflow", hs.Buckets)
	}
	if hs.Quantile(1.0) != int64(2*time.Second) {
		t.Errorf("overflow quantile = %d, want the tracked max", hs.Quantile(1.0))
	}
}

// TestSnapshotUnderConcurrentRegistration: snapshots taken while other
// goroutines register and observe new metrics must stay internally
// consistent and marshal deterministically (sorted map keys).
func TestSnapshotUnderConcurrentRegistration(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	names := []string{"a.one", "b.two", "c.three", "d.four"}
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// First registration unconditionally, so all four names exist
			// however quickly the snapshot loop finishes.
			m.LatencyHistogram(name).Observe(512)
			m.Timer(name).Observe(time.Microsecond)
			for {
				select {
				case <-stop:
					return
				default:
					m.LatencyHistogram(name).Observe(512)
					m.Timer(name).Observe(time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := m.Snapshot()
		for name, hs := range s.Histograms {
			var sum int64
			for _, b := range hs.Buckets {
				sum += b
			}
			if sum != hs.Count {
				t.Fatalf("%s: bucket sum %d != count %d", name, sum, hs.Count)
			}
		}
	}
	close(stop)
	wg.Wait()
	s := m.Snapshot()
	if len(s.Histograms) != len(names) || len(s.Timers) != len(names) {
		t.Fatalf("lost registrations: %d hists, %d timers, want %d each",
			len(s.Histograms), len(s.Timers), len(names))
	}
}

// TestTimerStatConsistency is the seqlock regression test: every
// observation adds exactly fixed ns, so any snapshot where total is not
// count×fixed paired a count with a foreign total. Run with -race.
func TestTimerStatConsistency(t *testing.T) {
	const d = 3 * time.Millisecond
	var tm Timer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tm.Observe(d)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		n, total := tm.Stat()
		if total != time.Duration(n)*d {
			t.Fatalf("torn snapshot: count=%d total=%v (want %v)", n, total, time.Duration(n)*d)
		}
	}
	close(stop)
	wg.Wait()
	n, total := tm.Stat()
	if total != time.Duration(n)*d {
		t.Fatalf("final snapshot torn: count=%d total=%v", n, total)
	}
}
