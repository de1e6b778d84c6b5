package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// High-resolution operation-latency histograms. The wait histogram in
// obs.go answers "how long did blocked operations stall"; these answer
// the Jiffy-style question "what does the full per-op latency
// distribution look like", which needs more resolution than whole
// powers of two: at log2 granularity p99 = 1µs and p99 = 2µs are the
// same bucket. The layout is HDR-style — log2 major buckets, each
// split into 2^LatSubBits linear sub-buckets — giving a bounded
// relative error of 2^-LatSubBits (6.25%) at any magnitude for the
// cost of a fixed 8KiB counter array.
//
// Recording is lock-free: one atomic add on the value's bucket plus
// the sum/max updates, with no locks anywhere, so a Snapshot can run
// concurrently with recording (it observes a monitoring-consistent,
// not point-consistent, view — the usual counter contract). Harnesses
// that want contention-free recording give each goroutine its own
// LatencyHist and merge the snapshots afterwards; queues share the
// Recorder-attached pair behind the same nil-recorder gate as every
// other instrument.

// LatSubBits is the HDR sub-bucket resolution: every power-of-two
// range splits into 2^LatSubBits linear sub-buckets, bounding the
// relative quantile error at 2^-LatSubBits (6.25%).
const LatSubBits = 4

// latSubCount is the number of linear sub-buckets per log2 group.
const latSubCount = 1 << LatSubBits

// latGroups covers the full positive int64 range: values below
// latSubCount form group 0 (exact); a value with most-significant bit
// m >= LatSubBits lands in group m-LatSubBits+1, and the largest
// positive int64 has m = 62.
const latGroups = 62 - LatSubBits + 2

// NumLatBuckets is the total bucket count of a LatencyHist.
const NumLatBuckets = latGroups * latSubCount

// latIndex maps a non-negative nanosecond value to its bucket index.
//
//ffq:hotpath
func latIndex(ns int64) int {
	v := uint64(ns)
	if v < latSubCount {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	g := msb - LatSubBits + 1
	sub := int(v>>uint(msb-LatSubBits)) & (latSubCount - 1)
	return g*latSubCount + sub
}

// LatBucketLow returns the inclusive lower bound, in nanoseconds, of
// bucket i.
func LatBucketLow(i int) int64 {
	g, sub := i/latSubCount, int64(i%latSubCount)
	if g == 0 {
		return sub
	}
	return (latSubCount + sub) << uint(g-1)
}

// LatBucketHigh returns the inclusive upper bound, in nanoseconds, of
// bucket i.
func LatBucketHigh(i int) int64 {
	g := i / latSubCount
	if g == 0 {
		return LatBucketLow(i)
	}
	return LatBucketLow(i) + (1 << uint(g-1)) - 1
}

// LatencyHist is a lock-free HDR-style latency histogram. The zero
// value is ready to use. Record may be called from any number of
// goroutines concurrently with Snapshot.
type LatencyHist struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumLatBuckets]atomic.Int64
}

// Record adds one observation of ns nanoseconds (negative values clamp
// to zero).
//
//ffq:hotpath
func (h *LatencyHist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	//ffq:ignore spin-backoff monotonic-max CAS: a failed swap means another recorder published a larger maximum, which is progress
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[latIndex(ns)].Add(1)
}

// Snapshot freezes the histogram into a LatencySnapshot with the
// percentile fields computed. The buckets are read before the max:
// Record raises the max before it counts the bucket, so every counted
// observation is covered by the max read after it, and a percentile
// never exceeds the snapshot's max.
func (h *LatencyHist) Snapshot() *LatencySnapshot {
	s := &LatencySnapshot{Buckets: make([]int64, NumLatBuckets)}
	for i := range s.Buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	s.finalize()
	return s
}

// LatencySnapshot is a frozen LatencyHist: the raw buckets plus the
// derived count/sum/max and the standard percentile cuts. The bucket
// array is carried for merging (Add/Sub re-derive the percentiles) but
// stays out of JSON — reports serialize the derived fields only.
type LatencySnapshot struct {
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MaxNS   int64   `json:"max_ns"`
	P50NS   int64   `json:"p50_ns"`
	P95NS   int64   `json:"p95_ns"`
	P99NS   int64   `json:"p99_ns"`
	P999NS  int64   `json:"p999_ns"`
	Buckets []int64 `json:"-"`
}

// finalize recomputes Count (from the buckets, so the percentile walk
// and the total always agree) plus the percentile fields.
func (s *LatencySnapshot) finalize() {
	var n int64
	for _, c := range s.Buckets {
		n += c
	}
	s.Count = n
	s.P50NS = s.Quantile(0.50)
	s.P95NS = s.Quantile(0.95)
	s.P99NS = s.Quantile(0.99)
	s.P999NS = s.Quantile(0.999)
}

// Quantile returns a conservative upper bound for the q-quantile
// (0 <= q <= 1): the upper edge of the bucket holding the target rank,
// clamped to the recorded maximum. Zero when the snapshot is empty.
func (s *LatencySnapshot) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			hi := LatBucketHigh(i)
			if s.MaxNS > 0 && hi > s.MaxNS {
				hi = s.MaxNS
			}
			return hi
		}
	}
	return s.MaxNS
}

// Mean returns the mean recorded latency.
func (s *LatencySnapshot) Mean() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Max returns the largest recorded latency.
func (s *LatencySnapshot) Max() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.MaxNS)
}

// Add folds o into s (bucket-wise; the max is the larger of the two)
// and returns s with its derived fields recomputed. Either side may be
// nil; the merged result is returned in all cases (nil only when both
// are nil).
func (s *LatencySnapshot) Add(o *LatencySnapshot) *LatencySnapshot {
	if o == nil {
		return s
	}
	if s == nil {
		c := *o
		c.Buckets = append([]int64(nil), o.Buckets...)
		return &c
	}
	if len(s.Buckets) != NumLatBuckets {
		s.Buckets = make([]int64, NumLatBuckets)
	}
	if len(o.Buckets) == NumLatBuckets {
		for i := range s.Buckets {
			s.Buckets[i] += o.Buckets[i]
		}
	}
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	s.finalize()
	return s
}

// Sub subtracts prev bucket-wise, the delta window between two
// snapshots of the same histogram. The max is lifetime-monotonic, so
// the newer value stands (a window-local max is not recoverable from
// the buckets). Returns s recomputed; prev may be nil.
func (s *LatencySnapshot) Sub(prev *LatencySnapshot) *LatencySnapshot {
	if s == nil || prev == nil {
		return s
	}
	if len(s.Buckets) == NumLatBuckets && len(prev.Buckets) == NumLatBuckets {
		for i := range s.Buckets {
			s.Buckets[i] -= prev.Buckets[i]
		}
	}
	s.SumNS -= prev.SumNS
	s.finalize()
	return s
}

// Log2Buckets folds the HDR buckets down to the coarse log2 scheme of
// the wait histogram (bucket i counts values of roughly at most 2^i
// ns, see BucketBound), the granularity the Prometheus exposition
// uses. Each HDR bucket is assigned whole to the log2 bucket of its
// upper edge, so exact powers of two can shift one coarse bucket up —
// an approximation the 6.25%-error source data cannot distinguish
// anyway. Returns nil when the snapshot is empty.
func (s *LatencySnapshot) Log2Buckets() []int64 {
	if s == nil || s.Count == 0 || len(s.Buckets) != NumLatBuckets {
		return nil
	}
	out := make([]int64, HistBuckets)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		b := bucketOf(LatBucketHigh(i))
		if b >= HistBuckets {
			b = HistBuckets - 1
		}
		out[b] += c
	}
	return out
}

// String renders the standard percentile cut.
func (s *LatencySnapshot) String() string {
	if s == nil || s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s p999=%s max=%s",
		s.Count, time.Duration(s.P50NS), time.Duration(s.P95NS),
		time.Duration(s.P99NS), time.Duration(s.P999NS), time.Duration(s.MaxNS))
}

// Latency is the per-op latency extension of a Recorder: one histogram
// per direction, attached with Recorder.EnableOpLatency. The type is
// exported because the hotpath-purity checker sanctions blocks guarded
// by a nil-check of *Latency exactly as it does *Recorder — the
// timestamp reads live inside those guards.
type Latency struct {
	enq LatencyHist
	deq LatencyHist
}

// EnqSnapshot freezes the enqueue-op histogram.
func (l *Latency) EnqSnapshot() *LatencySnapshot { return l.enq.Snapshot() }

// DeqSnapshot freezes the dequeue-op histogram.
func (l *Latency) DeqSnapshot() *LatencySnapshot { return l.deq.Snapshot() }
