package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests")
	c.Inc()
	c.Add(4)
	if got := r.Counter("requests").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := r.Gauge("depth").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("Reset did not zero metrics")
	}
	// The pointers held by instrumentation sites stay live after Reset.
	c.Inc()
	if r.Counters()["requests"] != 1 {
		t.Fatal("counter pointer dead after Reset")
	}
}

// TestHistogramBucketBoundaries pins the log-bucket layout: bucket i
// (i ≥ 1) holds [2^(i-1), 2^i), bucket 0 holds v ≤ 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1023, 10}, {1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v >= hi {
			if c.bucket != NumBuckets-1 { // top bucket is open-ended
				t.Errorf("value %d outside its bucket bounds [%d, %d)", c.v, lo, hi)
			}
		}
	}
	h := newHistogram()
	h.ObserveNs(1024)
	s := h.Snapshot()
	if s.Buckets[11] != 1 {
		t.Fatalf("1024 not in bucket 11: %v", s.Buckets[:13])
	}
	if s.Min != 1024 || s.Max != 1024 || s.Count != 1 || s.Sum != 1024 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	// 100 observations: 1..100 µs. Median is ~50 µs; the estimate is
	// the upper bound of the median's bucket, clamped to max.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 < 50_000 || p50 > 131_072 { // true 50µs ≤ est ≤ 2^17 ns
		t.Fatalf("p50 = %d ns, want within [50000, 131072]", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < p50 || p99 > 100_000 { // clamped to observed max
		t.Fatalf("p99 = %d ns, want within [p50, 100000]", p99)
	}
	if q := s.Quantile(1.0); q != 100_000 {
		t.Fatalf("p100 = %d, want max 100000", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty snapshot quantile/mean not 0")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this also proves the lock-free recording is sound.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("lat") // get-or-create raced across workers
			for i := 0; i < perWorker; i++ {
				h.ObserveNs(int64(w*perWorker + i + 1))
			}
		}(w)
	}
	// Concurrent snapshots while writes are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := r.Histogram("lat").Snapshot()
			if s.Count > workers*perWorker {
				t.Errorf("count overshot: %d", s.Count)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := r.Histogram("lat").Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	if s.Min != 1 || s.Max != workers*perWorker {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	want := int64(workers*perWorker) * (workers*perWorker + 1) / 2
	if s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}
