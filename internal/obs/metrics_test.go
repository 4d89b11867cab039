package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerHistogram(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if m.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}
	g := m.Gauge("g")
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	tm := m.Timer("t")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(4 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 6*time.Millisecond {
		t.Errorf("timer count=%d total=%v", tm.Count(), tm.Total())
	}
	h := m.Histogram("h", 1, 10, 100)
	for _, v := range []int64{0, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := m.Snapshot()
	hs := s.Histograms["h"]
	wantBuckets := []int64{2, 1, 1, 1}
	for i, w := range wantBuckets {
		if hs.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, hs.Buckets[i], w, hs)
		}
	}
	if hs.Count != 5 || hs.Sum != 556 {
		t.Errorf("hist count=%d sum=%d", hs.Count, hs.Sum)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Counter("z.last").Add(3)
	m.Counter("a.first").Add(1)
	m.Gauge("mid").Set(2)
	m.Timer("stage").Observe(time.Millisecond)
	m.Histogram("sizes", 2, 8).Observe(5)
	var b1, b2 bytes.Buffer
	if err := m.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

// Exercised under -race by verify.sh: the metrics must be safe for the
// concurrency future PRs will add.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("shared")
			h := m.Histogram("hist", 10)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 20))
				m.Gauge("g").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := m.Histogram("hist").count.Load(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestReset(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("c")
	c.Add(9)
	tm := m.Timer("t")
	tm.Observe(time.Second)
	m.Reset()
	if c.Value() != 0 || tm.Count() != 0 || tm.Total() != 0 {
		t.Fatalf("reset left values: c=%d t=%d/%v", c.Value(), tm.Count(), tm.Total())
	}
	// Cached pointers stay registered.
	c.Inc()
	if m.Snapshot().Counters["c"] != 1 {
		t.Fatal("cached counter detached from registry after Reset")
	}
}

// TestStageSummarySkipsIdleTimers: -v lists only timers that recorded an
// interval, and says so when none did.
func TestStageSummarySkipsIdleTimers(t *testing.T) {
	m := NewMetrics()
	m.Timer("idle")
	var buf bytes.Buffer
	StageSummary(&buf, m)
	if got := buf.String(); got != "no stage timings recorded\n" {
		t.Fatalf("only idle timers: got %q", got)
	}
	m.Timer("busy").Observe(time.Millisecond)
	buf.Reset()
	StageSummary(&buf, m)
	out := buf.String()
	if !strings.Contains(out, "busy") || strings.Contains(out, "idle") {
		t.Fatalf("summary must list busy and skip idle:\n%s", out)
	}
}
