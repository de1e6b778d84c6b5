// Package obs is the per-queue instrumentation core of the module: a
// set of monotonic counters and a log2-bucketed wait-latency histogram
// that the FFQ hot loops update when — and only when — a Recorder is
// attached to the queue.
//
// # Zero overhead when off
//
// Queues hold a *Recorder field that is nil by default. Every fast
// path checks the field exactly once, so the disabled configuration
// costs one always-not-taken, perfectly predicted branch per
// operation; BenchmarkInstrumentation in the root package gates that
// claim. The slow paths (spin loops, gap handling) re-check the field,
// which is free relative to the spinning they instrument.
//
// # Counter semantics
//
// All counters are monotonic over the life of the Recorder:
//
//   - Enqueues / Dequeues: completed operations (a Dequeue that
//     returns ok=false after Close does not count).
//   - FullSpins: producer-side spin iterations executed because the
//     queue was full (every pass through an Enqueue retry loop).
//   - EmptySpins: consumer-side spin iterations executed because the
//     consumer's rank had not been published yet.
//   - ProducerYields / ConsumerYields: backoff iterations that gave
//     the processor to the Go scheduler instead of busy-waiting.
//   - GapsCreated: ranks a producer skipped because the target cell
//     still held an undequeued item (the paper's Section III-A gaps).
//   - GapsSkipped: skipped ranks consumers discarded by re-acquiring
//     a fresh rank.
//
// Producer-side and consumer-side counters live on separate cache
// lines so that instrumented producers and consumers do not false-share
// the Recorder itself — the exact failure mode the paper's Section IV-A
// layout study measures for queue cells.
//
// A single Recorder may be shared by several queues (for example one
// Recorder per queue pool); counters then aggregate across the pool.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// cacheLine is the coherence granularity assumed for padding. Matches
// core.CacheLineSize (not imported to keep obs dependency-free).
const cacheLine = 64

// HistBuckets is the number of log2 wait-time buckets. Bucket i counts
// waits with ceil(log2(ns)) == i, so bucket 0 is <=1ns and bucket 63
// covers everything beyond ~292 years; in practice buckets 8..30
// (256ns..1s) carry the signal.
const HistBuckets = 64

// prodLine groups the producer-side counters on their own cache lines.
type prodLine struct {
	enqueues       atomic.Int64
	fullSpins      atomic.Int64
	producerYields atomic.Int64
	gapsCreated    atomic.Int64
	_              [cacheLine - 32%cacheLine]byte
}

// consLine groups the consumer-side counters on their own cache lines.
type consLine struct {
	dequeues       atomic.Int64
	emptySpins     atomic.Int64
	consumerYields atomic.Int64
	gapsSkipped    atomic.Int64
	_              [cacheLine - 32%cacheLine]byte
}

// waitLine holds the blocking-wait histogram: counts per log2(ns)
// bucket plus the running sum and count that exposition formats need.
// Waits are recorded by consumers (and producers on the full-queue
// path), so the line sits after the consumer counters.
type waitLine struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets [HistBuckets]atomic.Int64
	_       [cacheLine - (16+8*HistBuckets)%cacheLine]byte
}

// BatchHistBuckets is the number of log2 batch-size buckets. Bucket i
// counts batches of ceil(log2(n)) == i items, so bucket 0 is single
// operations and bucket 15 covers batches up to 32768 items — far
// beyond any sensible batch; larger ones are clamped into it.
const BatchHistBuckets = 16

// batchLine holds the batch-size histogram of the queues'
// EnqueueBatch/DequeueBatch operations, plus the running count and
// item sum.
type batchLine struct {
	count    atomic.Int64
	sumItems atomic.Int64
	buckets  [BatchHistBuckets]atomic.Int64
	_        [cacheLine - (16+8*BatchHistBuckets)%cacheLine]byte
}

// Recorder accumulates instrumentation for one queue (or one shared
// pool of queues). The zero value is ready to use; a nil *Recorder is
// the "instrumentation off" state and every method is safe to skip
// behind a nil check.
//
// The producer-side and consumer-side counter groups each occupy their
// own cache lines (see the package comment); the nested line structs
// are what records that grouping, so only Recorder itself carries the
// padding marker.
//
//ffq:padded
type Recorder struct {
	prod  prodLine
	cons  consLine
	wait  waitLine
	batch batchLine
	// lat and stall are the optional per-op latency and stall-watchdog
	// extensions; nil (the default) keeps their hot-path cost at one
	// predicted branch. Both must be attached via EnableOpLatency /
	// EnableStallWatchdog before the Recorder is shared with queues —
	// the fields are read without synchronization afterwards.
	lat   *Latency
	stall *Stall
	_     [cacheLine - 16]byte
}

// NewRecorder returns a fresh Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// EnableOpLatency attaches the per-op latency histograms: every
// completed Enqueue/Dequeue on an instrumented queue then records its
// full operation latency (two clock reads per op — enable it for
// latency runs, not throughput baselines). Must be called before the
// Recorder is shared. Returns r for chaining.
func (r *Recorder) EnableOpLatency() *Recorder {
	if r.lat == nil {
		r.lat = &Latency{}
	}
	return r
}

// EnableStallWatchdog attaches the stall watchdog with the given
// threshold and event-ring size (<= 0 selects DefaultStallThreshold /
// DefaultStallRing). Must be called before the Recorder is shared.
// Returns r for chaining.
func (r *Recorder) EnableStallWatchdog(threshold time.Duration, ring int) *Recorder {
	if r.stall == nil {
		r.stall = newStall(threshold, ring)
	}
	return r
}

// OpLatency returns the attached latency extension, or nil.
func (r *Recorder) OpLatency() *Latency {
	if r == nil {
		return nil
	}
	return r.lat
}

// StallWatchdog returns the attached watchdog, or nil.
func (r *Recorder) StallWatchdog() *Stall {
	if r == nil {
		return nil
	}
	return r.stall
}

// Enqueue records one completed enqueue.
//
//ffq:hotpath
func (r *Recorder) Enqueue() { r.prod.enqueues.Add(1) }

// EnqueueN records n completed enqueues in one addition (the batch
// paths).
//
//ffq:hotpath
func (r *Recorder) EnqueueN(n int) { r.prod.enqueues.Add(int64(n)) }

// Dequeue records one completed dequeue.
//
//ffq:hotpath
func (r *Recorder) Dequeue() { r.cons.dequeues.Add(1) }

// DequeueN records n completed dequeues in one addition (the batch
// paths).
//
//ffq:hotpath
func (r *Recorder) DequeueN(n int) { r.cons.dequeues.Add(int64(n)) }

// FullSpin records one producer spin iteration on a full queue.
//
//ffq:hotpath
func (r *Recorder) FullSpin() { r.prod.fullSpins.Add(1) }

// EmptySpin records one consumer spin iteration on an empty rank.
//
//ffq:hotpath
func (r *Recorder) EmptySpin() { r.cons.emptySpins.Add(1) }

// ProducerYield records a producer backoff that yielded the processor.
//
//ffq:hotpath
func (r *Recorder) ProducerYield() { r.prod.producerYields.Add(1) }

// ConsumerYield records a consumer backoff that yielded the processor.
//
//ffq:hotpath
func (r *Recorder) ConsumerYield() { r.cons.consumerYields.Add(1) }

// GapCreated records a rank skipped by a producer.
//
//ffq:hotpath
func (r *Recorder) GapCreated() { r.prod.gapsCreated.Add(1) }

// GapSkipped records a skipped rank discarded by a consumer.
//
//ffq:hotpath
func (r *Recorder) GapSkipped() { r.cons.gapsSkipped.Add(1) }

// ObserveWait records the duration of one blocking wait (time spent
// spinning before an operation could complete).
//
//ffq:hotpath
func (r *Recorder) ObserveWait(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	r.wait.count.Add(1)
	r.wait.sumNS.Add(ns)
	r.wait.buckets[bucketOf(ns)].Add(1)
}

// EndWait records the completion of one blocking wait: the duration
// lands in the wait histogram, and — when the stall watchdog is
// attached — waits at or beyond the threshold land in the
// stall-duration histogram, emitting the stall event if the in-loop
// StallCheck calls never reported it (reported=false).
//
//ffq:hotpath
func (r *Recorder) EndWait(role Role, rank int64, d time.Duration, reported bool) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	r.wait.count.Add(1)
	r.wait.sumNS.Add(ns)
	r.wait.buckets[bucketOf(ns)].Add(1)
	st := r.stall
	if st != nil {
		st.complete(role, rank, ns, reported)
	}
}

// StallCheck is called from inside blocking spin loops (within the
// instrumentation guard) with the loop's spin counter and the state of
// any earlier report. One iteration in stallCheckMask+1 reads the
// clock; a wait that has crossed the watchdog threshold emits its
// stall event exactly once per episode. The return value is the new
// reported state — callers thread it back in on the next iteration.
//
//ffq:hotpath
func (r *Recorder) StallCheck(role Role, rank int64, waitStart time.Time, spins int, reported bool) bool {
	if reported || spins&stallCheckMask != 0 {
		return reported
	}
	st := r.stall
	if st != nil {
		return st.check(role, rank, waitStart)
	}
	return false
}

// OpStart returns the operation start timestamp when per-op latency
// recording is enabled, and the zero time (one predicted branch, no
// clock read) otherwise. Call at the top of an instrumented operation
// and hand the result to EnqueueDone/DequeueDone.
//
//ffq:hotpath
func (r *Recorder) OpStart() time.Time {
	if r.lat != nil {
		return time.Now()
	}
	var zero time.Time
	return zero
}

// EnqueueDone records the full latency of one completed enqueue when
// per-op latency recording is enabled (start from OpStart).
//
//ffq:hotpath
func (r *Recorder) EnqueueDone(start time.Time) {
	if r.lat != nil && !start.IsZero() {
		r.lat.enq.Record(int64(time.Since(start)))
	}
}

// DequeueDone records the full latency of one completed dequeue when
// per-op latency recording is enabled (start from OpStart).
//
//ffq:hotpath
func (r *Recorder) DequeueDone(start time.Time) {
	if r.lat != nil && !start.IsZero() {
		r.lat.deq.Record(int64(time.Since(start)))
	}
}

// ObserveBatch records one batch operation of n items (an
// EnqueueBatch or DequeueBatch call). n <= 0 is ignored.
//
//ffq:hotpath
func (r *Recorder) ObserveBatch(n int) {
	if n <= 0 {
		return
	}
	r.batch.count.Add(1)
	r.batch.sumItems.Add(int64(n))
	b := bucketOf(int64(n))
	if b >= BatchHistBuckets {
		b = BatchHistBuckets - 1
	}
	r.batch.buckets[b].Add(1)
}

// bucketOf maps a nanosecond wait to its log2 bucket index.
//
//ffq:hotpath
func bucketOf(ns int64) int {
	if ns <= 1 {
		return 0
	}
	return bits.Len64(uint64(ns - 1)) // ceil(log2(ns))
}

// BucketBound returns the inclusive upper bound, in nanoseconds, of
// histogram bucket i (2^i ns).
func BucketBound(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return 1 << uint(i)
}

// Stats is a point-in-time snapshot of a Recorder. See the package
// comment for the semantics of each counter.
type Stats struct {
	Enqueues       int64 `json:"enqueues"`
	Dequeues       int64 `json:"dequeues"`
	FullSpins      int64 `json:"full_spins"`
	EmptySpins     int64 `json:"empty_spins"`
	ProducerYields int64 `json:"producer_yields"`
	ConsumerYields int64 `json:"consumer_yields"`
	GapsCreated    int64 `json:"gaps_created"`
	GapsSkipped    int64 `json:"gaps_skipped"`
	// WaitCount and WaitSumNS summarize the blocking-wait histogram.
	WaitCount int64 `json:"wait_count"`
	WaitSumNS int64 `json:"wait_sum_ns"`
	// WaitBuckets[i] counts waits of at most 2^i nanoseconds (see
	// BucketBound). Omitted from JSON when all-zero.
	WaitBuckets []int64 `json:"wait_buckets,omitempty"`

	// BatchCount and BatchSumItems summarize the batch-size histogram
	// of EnqueueBatch/DequeueBatch calls; BatchBuckets[i] counts
	// batches of at most 2^i items. Omitted from JSON when unused.
	BatchCount    int64   `json:"batch_count,omitempty"`
	BatchSumItems int64   `json:"batch_sum_items,omitempty"`
	BatchBuckets  []int64 `json:"batch_buckets,omitempty"`

	// EnqLatency and DeqLatency are the per-op latency distributions;
	// nil unless the Recorder had EnableOpLatency.
	EnqLatency *LatencySnapshot `json:"enq_latency,omitempty"`
	DeqLatency *LatencySnapshot `json:"deq_latency,omitempty"`

	// Stall watchdog aggregates; populated only when the Recorder had
	// EnableStallWatchdog. StallEvents counts detected stall episodes
	// (including in-progress ones), StallCount/StallSumNS/StallBuckets
	// summarize the log2 duration histogram of *completed* stalls, and
	// RecentStalls is the newest-first tail of the event ring.
	// StallThresholdNS is the configured threshold (a setting, not a
	// counter: Sub/Add keep the newer / first non-zero value).
	StallEvents      int64        `json:"stall_events,omitempty"`
	StallCount       int64        `json:"stall_count,omitempty"`
	StallSumNS       int64        `json:"stall_sum_ns,omitempty"`
	StallBuckets     []int64      `json:"stall_buckets,omitempty"`
	StallThresholdNS int64        `json:"stall_threshold_ns,omitempty"`
	RecentStalls     []StallEvent `json:"recent_stalls,omitempty"`
}

// Snapshot returns the current counter values. Each counter is read
// atomically; the set as a whole is not a consistent cut (counters may
// advance between reads), which is the usual contract for monitoring
// counters. Snapshot on a nil Recorder returns zero Stats.
func (r *Recorder) Snapshot() Stats {
	if r == nil {
		return Stats{}
	}
	s := Stats{
		Enqueues:       r.prod.enqueues.Load(),
		Dequeues:       r.cons.dequeues.Load(),
		FullSpins:      r.prod.fullSpins.Load(),
		EmptySpins:     r.cons.emptySpins.Load(),
		ProducerYields: r.prod.producerYields.Load(),
		ConsumerYields: r.cons.consumerYields.Load(),
		GapsCreated:    r.prod.gapsCreated.Load(),
		GapsSkipped:    r.cons.gapsSkipped.Load(),
		WaitCount:      r.wait.count.Load(),
		WaitSumNS:      r.wait.sumNS.Load(),
		BatchCount:     r.batch.count.Load(),
		BatchSumItems:  r.batch.sumItems.Load(),
	}
	if s.WaitCount > 0 {
		s.WaitBuckets = make([]int64, HistBuckets)
		for i := range s.WaitBuckets {
			s.WaitBuckets[i] = r.wait.buckets[i].Load()
		}
	}
	if s.BatchCount > 0 {
		s.BatchBuckets = make([]int64, BatchHistBuckets)
		for i := range s.BatchBuckets {
			s.BatchBuckets[i] = r.batch.buckets[i].Load()
		}
	}
	if lat := r.lat; lat != nil {
		s.EnqLatency = lat.EnqSnapshot()
		s.DeqLatency = lat.DeqSnapshot()
	}
	if st := r.stall; st != nil {
		s.StallEvents = st.events.Load()
		s.StallCount = st.count.Load()
		s.StallSumNS = st.sumNS.Load()
		s.StallThresholdNS = st.thresholdNS
		if s.StallCount > 0 {
			s.StallBuckets = make([]int64, HistBuckets)
			for i := range s.StallBuckets {
				s.StallBuckets[i] = st.buckets[i].Load()
			}
		}
		s.RecentStalls = st.recent(0)
	}
	return s
}

// Sub returns s - prev counter-wise, the rate window between two
// snapshots. Bucket slices are subtracted element-wise when both are
// present.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		Enqueues:       s.Enqueues - prev.Enqueues,
		Dequeues:       s.Dequeues - prev.Dequeues,
		FullSpins:      s.FullSpins - prev.FullSpins,
		EmptySpins:     s.EmptySpins - prev.EmptySpins,
		ProducerYields: s.ProducerYields - prev.ProducerYields,
		ConsumerYields: s.ConsumerYields - prev.ConsumerYields,
		GapsCreated:    s.GapsCreated - prev.GapsCreated,
		GapsSkipped:    s.GapsSkipped - prev.GapsSkipped,
		WaitCount:      s.WaitCount - prev.WaitCount,
		WaitSumNS:      s.WaitSumNS - prev.WaitSumNS,
		BatchCount:     s.BatchCount - prev.BatchCount,
		BatchSumItems:  s.BatchSumItems - prev.BatchSumItems,

		StallEvents:      s.StallEvents - prev.StallEvents,
		StallCount:       s.StallCount - prev.StallCount,
		StallSumNS:       s.StallSumNS - prev.StallSumNS,
		StallThresholdNS: s.StallThresholdNS, // setting: the newer value stands
		RecentStalls:     s.RecentStalls,     // newest tail: the newer view stands
	}
	d.WaitBuckets = subBuckets(s.WaitBuckets, prev.WaitBuckets, HistBuckets)
	d.BatchBuckets = subBuckets(s.BatchBuckets, prev.BatchBuckets, BatchHistBuckets)
	d.StallBuckets = subBuckets(s.StallBuckets, prev.StallBuckets, HistBuckets)
	d.EnqLatency = cloneLatency(s.EnqLatency).Sub(prev.EnqLatency)
	d.DeqLatency = cloneLatency(s.DeqLatency).Sub(prev.DeqLatency)
	return d
}

// cloneLatency deep-copies a snapshot so Sub on a Stats value never
// mutates the operands' shared bucket slices. Nil stays nil.
func cloneLatency(s *LatencySnapshot) *LatencySnapshot {
	if s == nil {
		return nil
	}
	c := *s
	c.Buckets = append([]int64(nil), s.Buckets...)
	return &c
}

// subBuckets subtracts prev from cur element-wise when cur is present.
func subBuckets(cur, prev []int64, n int) []int64 {
	if len(cur) != n {
		return nil
	}
	d := make([]int64, n)
	for i, v := range cur {
		d[i] = v
		if len(prev) == n {
			d[i] -= prev[i]
		}
	}
	return d
}

// SpinRatio returns spin iterations (both sides) per completed
// operation — the "wasted work" figure of merit for a queue sized too
// small (full spins) or drained too aggressively (empty spins).
func (s Stats) SpinRatio() float64 {
	ops := s.Enqueues + s.Dequeues
	if ops == 0 {
		return 0
	}
	return float64(s.FullSpins+s.EmptySpins) / float64(ops)
}

// MeanWait returns the mean blocking wait, or 0 when nothing blocked.
func (s Stats) MeanWait() time.Duration {
	if s.WaitCount == 0 {
		return 0
	}
	return time.Duration(s.WaitSumNS / s.WaitCount)
}

// MeanBatch returns the mean items per batch operation, or 0 when no
// batch operation was recorded.
func (s Stats) MeanBatch() float64 {
	if s.BatchCount == 0 {
		return 0
	}
	return float64(s.BatchSumItems) / float64(s.BatchCount)
}

// String renders the snapshot as a compact one-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "enq=%d deq=%d spins=%d/%d yields=%d/%d gaps=%d/%d",
		s.Enqueues, s.Dequeues, s.FullSpins, s.EmptySpins,
		s.ProducerYields, s.ConsumerYields, s.GapsCreated, s.GapsSkipped)
	if s.WaitCount > 0 {
		fmt.Fprintf(&b, " waits=%d mean=%s", s.WaitCount, s.MeanWait())
	}
	if s.BatchCount > 0 {
		fmt.Fprintf(&b, " batches=%d mean=%.1f", s.BatchCount, s.MeanBatch())
	}
	if s.DeqLatency != nil && s.DeqLatency.Count > 0 {
		fmt.Fprintf(&b, " deq_lat[%s]", s.DeqLatency)
	}
	if s.EnqLatency != nil && s.EnqLatency.Count > 0 {
		fmt.Fprintf(&b, " enq_lat[%s]", s.EnqLatency)
	}
	if s.StallEvents > 0 {
		fmt.Fprintf(&b, " stalls=%d mean=%s", s.StallEvents, s.MeanStall())
	}
	return b.String()
}

// MeanStall returns the mean completed-stall duration, or 0 when no
// stall completed.
func (s Stats) MeanStall() time.Duration {
	if s.StallCount == 0 {
		return 0
	}
	return time.Duration(s.StallSumNS / s.StallCount)
}
