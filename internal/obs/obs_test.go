package obs

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestNilRecorderSnapshot(t *testing.T) {
	var r *Recorder
	s := r.Snapshot()
	if s.Enqueues != 0 || s.Dequeues != 0 || s.WaitCount != 0 || s.WaitBuckets != nil {
		t.Fatalf("nil recorder snapshot not zero: %+v", s)
	}
}

func TestCountersRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Enqueue()
	r.Enqueue()
	r.Dequeue()
	r.FullSpin()
	r.EmptySpin()
	r.EmptySpin()
	r.EmptySpin()
	r.ProducerYield()
	r.ConsumerYield()
	r.GapCreated()
	r.GapSkipped()
	s := r.Snapshot()
	if s.Enqueues != 2 || s.Dequeues != 1 || s.FullSpins != 1 ||
		s.EmptySpins != 3 || s.ProducerYields != 1 || s.ConsumerYields != 1 ||
		s.GapsCreated != 1 || s.GapsSkipped != 1 {
		t.Fatalf("unexpected snapshot: %+v", s)
	}
}

func TestPaddingSeparatesProducerAndConsumerLines(t *testing.T) {
	var r Recorder
	p := unsafe.Offsetof(r.prod)
	c := unsafe.Offsetof(r.cons)
	w := unsafe.Offsetof(r.wait)
	if c-p < cacheLine {
		t.Fatalf("producer and consumer counters share a cache line: offsets %d, %d", p, c)
	}
	if w-c < cacheLine {
		t.Fatalf("consumer counters and wait histogram share a cache line: offsets %d, %d", c, w)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{255, 8}, {256, 8}, {257, 9}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's bound must land in its own bucket.
	for i := 0; i < 63; i++ {
		if got := bucketOf(BucketBound(i)); got != i {
			t.Errorf("bucketOf(BucketBound(%d)=%d) = %d", i, BucketBound(i), got)
		}
	}
}

func TestObserveWait(t *testing.T) {
	r := NewRecorder()
	r.ObserveWait(100 * time.Nanosecond)
	r.ObserveWait(100 * time.Nanosecond)
	r.ObserveWait(1 * time.Millisecond)
	r.ObserveWait(-5) // clamped, not a crash
	s := r.Snapshot()
	if s.WaitCount != 4 {
		t.Fatalf("WaitCount = %d, want 4", s.WaitCount)
	}
	if want := int64(200 + 1e6); s.WaitSumNS != want {
		t.Fatalf("WaitSumNS = %d, want %d", s.WaitSumNS, want)
	}
	if len(s.WaitBuckets) != HistBuckets {
		t.Fatalf("WaitBuckets length %d", len(s.WaitBuckets))
	}
	if s.WaitBuckets[bucketOf(100)] != 2 {
		t.Fatalf("100ns bucket = %d, want 2", s.WaitBuckets[bucketOf(100)])
	}
	var total int64
	for _, b := range s.WaitBuckets {
		total += b
	}
	if total != 4 {
		t.Fatalf("bucket sum %d != count 4", total)
	}
	if got := s.MeanWait(); got != time.Duration((200+1e6)/4) {
		t.Fatalf("MeanWait = %v", got)
	}
}

func TestSubAndAdd(t *testing.T) {
	r := NewRecorder()
	r.Enqueue()
	r.ObserveWait(10)
	a := r.Snapshot()
	r.Enqueue()
	r.Dequeue()
	r.ObserveWait(10)
	b := r.Snapshot()
	d := b.Sub(a)
	if d.Enqueues != 1 || d.Dequeues != 1 || d.WaitCount != 1 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	if d.WaitBuckets[bucketOf(10)] != 1 {
		t.Fatalf("Sub bucket wrong: %v", d.WaitBuckets[bucketOf(10)])
	}
}

func TestObserveBatch(t *testing.T) {
	r := NewRecorder()
	r.ObserveBatch(1)
	r.ObserveBatch(8)
	r.ObserveBatch(64)
	r.ObserveBatch(0)  // ignored
	r.ObserveBatch(-3) // ignored
	s := r.Snapshot()
	if s.BatchCount != 3 || s.BatchSumItems != 73 {
		t.Fatalf("batch summary wrong: %+v", s)
	}
	if len(s.BatchBuckets) != BatchHistBuckets {
		t.Fatalf("BatchBuckets length %d", len(s.BatchBuckets))
	}
	if s.BatchBuckets[0] != 1 || s.BatchBuckets[3] != 1 || s.BatchBuckets[6] != 1 {
		t.Fatalf("batch buckets wrong: %v", s.BatchBuckets)
	}
	if got := s.MeanBatch(); got < 24.3 || got > 24.4 {
		t.Fatalf("MeanBatch = %v", got)
	}
	// Oversized batches clamp into the last bucket instead of panicking.
	r.ObserveBatch(1 << 20)
	if b := r.Snapshot().BatchBuckets[BatchHistBuckets-1]; b != 1 {
		t.Fatalf("oversized batch bucket = %d, want 1", b)
	}
}

func TestBatchSubAdd(t *testing.T) {
	a := Stats{BatchCount: 1, BatchSumItems: 8}
	b := Stats{BatchCount: 3, BatchSumItems: 40}
	d := b.Sub(a)
	if d.BatchCount != 2 || d.BatchSumItems != 32 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

func TestSpinRatio(t *testing.T) {
	var s Stats
	if s.SpinRatio() != 0 {
		t.Fatal("zero stats SpinRatio != 0")
	}
	s = Stats{Enqueues: 2, Dequeues: 2, FullSpins: 1, EmptySpins: 3}
	if got := s.SpinRatio(); got != 1.0 {
		t.Fatalf("SpinRatio = %v, want 1.0", got)
	}
}

// TestConcurrentRecording exercises every counter from many goroutines
// under -race.
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Enqueue()
				r.Dequeue()
				r.FullSpin()
				r.EmptySpin()
				r.ProducerYield()
				r.ConsumerYield()
				r.GapCreated()
				r.GapSkipped()
				r.ObserveWait(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	const want = workers * per
	if s.Enqueues != want || s.Dequeues != want || s.WaitCount != want {
		t.Fatalf("lost updates: %+v", s)
	}
}
