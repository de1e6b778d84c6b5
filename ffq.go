// Package ffq is a Go implementation of FFQ, the fast
// single-producer/multiple-consumer concurrent FIFO queue of
//
//	S. Arnautov, C. Fetzer, B. Trach, P. Felber:
//	"FFQ: A Fast Single-Producer/Multiple-Consumer Concurrent FIFO
//	Queue", IPDPS 2017,
//
// together with the multi-producer variant (FFQ^m) and the SPSC
// specialization the paper evaluates.
//
// # Choosing a variant
//
//   - SPSC: one producer goroutine, one consumer goroutine. Cheapest:
//     no atomic read-modify-write on either side.
//   - SPMC: one producer, any number of consumers. Enqueue is
//     wait-free while the queue has a free slot; Dequeue is lock-free
//     (one fetch-and-add plus a cell handshake). This is the paper's
//     headline algorithm: use one SPMC queue per producer and fan
//     work out to a consumer pool.
//   - MPMC: any number of producers and consumers. Costs one
//     fetch-and-add plus an (emulated) double-width CAS per
//     operation; still competitive with the fastest general-purpose
//     queues, but if you can give each producer its own SPMC queue,
//     do that instead — it is what the algorithm was designed for.
//
// # Semantics shared by all variants
//
// Every queue is bounded; capacities must be powers of two. Enqueue never fails: when the queue is full it spins (the
// paper's deployments size queues so that an empty slot always exists
// — see the "implicit flow control" observation in Section I).
// Dequeue blocks while the queue is empty, TryDequeue polls without
// blocking, and both return ok=false only after Close, once every
// item has been delivered (for TryDequeue, ok=false also just means
// "nothing ready yet"). Values are delivered exactly once, in FIFO
// order per producer.
//
// # Memory layout
//
// The WithLayout option selects the cell placement strategies the
// paper studies for false sharing (Section IV-A): compact cells,
// one cell per cache line, index randomization, or both. The default
// is compact; LayoutPadded is the best all-round choice on multi-core
// hardware and costs only memory.
package ffq

import (
	"time"

	"ffq/internal/core"
	"ffq/internal/obs"
)

// Layout selects the cell memory placement. See the Layout constants.
type Layout = core.Layout

// Cell memory layouts (Section IV-A of the paper).
const (
	// LayoutCompact packs cells contiguously ("not aligned").
	LayoutCompact = core.LayoutCompact
	// LayoutPadded places every cell on its own cache line ("aligned").
	LayoutPadded = core.LayoutPadded
	// LayoutRandomized rotates index bits so consecutive ranks land 16
	// slots apart ("randomized").
	LayoutRandomized = core.LayoutRandomized
	// LayoutPaddedRandomized combines both ("both").
	LayoutPaddedRandomized = core.LayoutPaddedRandomized
)

// Option configures queue construction.
type Option = core.Option

// WithLayout selects the memory layout of the cell array.
func WithLayout(l Layout) Option { return core.WithLayout(l) }

// Stats is a point-in-time snapshot of a queue's instrumentation
// counters: completed operations, full-/empty-queue spin iterations,
// scheduler yields, gap creation and gap-skip counts, and a
// log2-bucketed histogram of blocking-path wait times. All counters
// are monotonic over the queue's lifetime. See the Stats method on
// each variant.
type Stats = obs.Stats

// WithInstrumentation enables per-queue metrics: every operation,
// spin, yield, gap and blocking wait is counted, readable through the
// queue's Stats method. Instrumentation costs a few atomic additions
// on the paths it observes; without it (the default) a queue keeps no
// per-operation state and the hot paths pay only one predicted branch,
// so leave it off in throughput-critical production queues and enable
// it when sizing, debugging or live-monitoring a deployment.
func WithInstrumentation() Option { return core.WithInstrumentation() }

// WithYieldThreshold overrides the number of consecutive failed polls
// after which a blocked goroutine yields to the Go scheduler instead
// of busy-waiting (default: 64 on multiprocessors, 1 on a
// uniprocessor). n <= 0 restores the default.
func WithYieldThreshold(n int) Option { return core.WithYieldThreshold(n) }

// WithOpLatency enables per-operation latency recording: every
// completed blocking Enqueue/Dequeue records its full latency into
// HDR-style histograms, and the queue's Stats carries p50/p95/p99/p999
// snapshots (EnqLatency/DeqLatency). Costs two clock reads per
// operation — enable it for latency investigations, not throughput
// baselines. Implies instrumentation: a Recorder is attached even
// without WithInstrumentation.
func WithOpLatency() Option { return core.WithOpLatency() }

// WithStallWatchdog arms the stall watchdog: any blocking wait that
// crosses threshold emits a timestamped stall event (role, rank,
// duration) into a fixed-size lock-free event ring and a
// stall-duration histogram, readable through Stats (StallEvents,
// RecentStalls). The in-loop check reads the clock once per 64 spin
// iterations of an already-blocked operation, so an armed watchdog is
// free on the fast path. threshold <= 0 selects the 1ms default.
// Implies instrumentation, like WithOpLatency.
func WithStallWatchdog(threshold time.Duration) Option { return core.WithStallWatchdog(threshold) }

// SPSC is a bounded FIFO queue for exactly one producer goroutine and
// exactly one consumer goroutine.
type SPSC[T any] struct{ q *core.SPSC[T] }

// NewSPSC returns an SPSC queue; capacity must be a power of two >= 2.
func NewSPSC[T any](capacity int, opts ...Option) (*SPSC[T], error) {
	q, err := core.NewSPSC[T](capacity, opts...)
	if err != nil {
		return nil, err
	}
	return &SPSC[T]{q: q}, nil
}

// Enqueue inserts v at the tail, spinning while the queue is full.
// Producer goroutine only.
func (s *SPSC[T]) Enqueue(v T) { s.q.Enqueue(v) }

// TryEnqueue inserts v if the tail slot is free. Producer only.
func (s *SPSC[T]) TryEnqueue(v T) bool { return s.q.TryEnqueue(v) }

// Dequeue removes the head item, blocking while the queue is empty;
// ok=false after Close once drained. Consumer goroutine only.
func (s *SPSC[T]) Dequeue() (v T, ok bool) { return s.q.Dequeue() }

// TryDequeue removes the head item if one is ready. Consumer only.
func (s *SPSC[T]) TryDequeue() (v T, ok bool) { return s.q.TryDequeue() }

// Close marks the queue closed (producer side, after the final
// Enqueue).
func (s *SPSC[T]) Close() { s.q.Close() }

// Len approximates the number of queued items.
func (s *SPSC[T]) Len() int { return s.q.Len() }

// Cap returns the capacity.
func (s *SPSC[T]) Cap() int { return s.q.Cap() }

// Gaps returns the number of ranks the producer has skipped because
// the consumer still held the target cell. Always available; a
// non-zero value means the queue ran full (consider a larger
// capacity).
func (s *SPSC[T]) Gaps() int64 { return s.q.Gaps() }

// Stats snapshots the queue's instrumentation counters. Without
// WithInstrumentation only the always-on GapsCreated counter is
// populated.
func (s *SPSC[T]) Stats() Stats { return s.q.Stats() }

// SPMC is the paper's FFQ^s: a bounded FIFO queue with one producer
// goroutine and any number of concurrent consumers.
type SPMC[T any] struct{ q *core.SPMC[T] }

// NewSPMC returns an SPMC queue; capacity must be a power of two >= 2.
func NewSPMC[T any](capacity int, opts ...Option) (*SPMC[T], error) {
	q, err := core.NewSPMC[T](capacity, opts...)
	if err != nil {
		return nil, err
	}
	return &SPMC[T]{q: q}, nil
}

// Enqueue inserts v at the tail. Wait-free while a slot is free;
// spins when full. Producer goroutine only.
func (s *SPMC[T]) Enqueue(v T) { s.q.Enqueue(v) }

// TryEnqueue inserts v if the tail slot is free. Producer only.
func (s *SPMC[T]) TryEnqueue(v T) bool { return s.q.TryEnqueue(v) }

// Dequeue removes the next item, blocking while the queue is empty;
// ok=false after Close once drained. Safe for any number of
// concurrent consumers.
func (s *SPMC[T]) Dequeue() (v T, ok bool) { return s.q.Dequeue() }

// TryDequeue removes the head item if one is ready, never blocking.
// Where Dequeue reserves a rank with fetch-and-add and must wait for
// it, TryDequeue claims the head with a compare-and-swap only once
// the item is visibly ready, so a false return (empty, still filling,
// or closed and drained) leaves nothing reserved. Safe for concurrent
// consumers, mixed freely with Dequeue.
func (s *SPMC[T]) TryDequeue() (v T, ok bool) { return s.q.TryDequeue() }

// EnqueueBatch inserts every element of vs in order, publishing the
// tail index once per batch instead of once per item. Producer
// goroutine only.
func (s *SPMC[T]) EnqueueBatch(vs []T) { s.q.EnqueueBatch(vs) }

// DequeueBatch removes up to len(dst) items with a single rank
// reservation, blocking like Dequeue. n < len(dst) with ok=true means
// the claimed run crossed producer-skipped ranks; ok=false means
// closed and drained, with the n preceding items still delivered.
// Safe for concurrent consumers.
func (s *SPMC[T]) DequeueBatch(dst []T) (n int, ok bool) { return s.q.DequeueBatch(dst) }

// TryDequeueBatch removes up to len(dst) ready items without blocking,
// claiming a whole resolved run with one compare-and-swap; 0 means
// nothing was ready. Safe for concurrent consumers, mixed freely with
// the other dequeue forms.
func (s *SPMC[T]) TryDequeueBatch(dst []T) int { return s.q.TryDequeueBatch(dst) }

// Close marks the queue closed (producer side, after the final
// Enqueue).
func (s *SPMC[T]) Close() { s.q.Close() }

// Len approximates the number of queued items.
func (s *SPMC[T]) Len() int { return s.q.Len() }

// Cap returns the capacity.
func (s *SPMC[T]) Cap() int { return s.q.Cap() }

// Gaps returns the number of ranks the producer has skipped because a
// slow consumer still held the target cell (Section III-A of the
// paper). Always available; a non-zero value means the queue ran full
// at some point (consider a larger capacity).
func (s *SPMC[T]) Gaps() int64 { return s.q.Gaps() }

// Stats snapshots the queue's instrumentation counters. Without
// WithInstrumentation only the always-on GapsCreated counter is
// populated.
func (s *SPMC[T]) Stats() Stats { return s.q.Stats() }

// MPMC is the paper's FFQ^m: a bounded FIFO queue safe for any number
// of producers and consumers. The paper's 128-bit double
// compare-and-set is emulated with a packed 64-bit word; the queue
// supports (2^32-3) x capacity operations over its lifetime (about
// 500 hours at a billion operations per second on a 4096-slot queue).
type MPMC[T any] struct{ q *core.MPMC[T] }

// NewMPMC returns an MPMC queue; capacity must be a power of two >= 2.
func NewMPMC[T any](capacity int, opts ...Option) (*MPMC[T], error) {
	q, err := core.NewMPMC[T](capacity, opts...)
	if err != nil {
		return nil, err
	}
	return &MPMC[T]{q: q}, nil
}

// Enqueue inserts v at the tail; lock-free while a slot is free,
// spins when full. Safe for concurrent producers.
func (s *MPMC[T]) Enqueue(v T) { s.q.Enqueue(v) }

// Dequeue removes the next item, blocking while the queue is empty;
// ok=false after Close once drained. Safe for concurrent consumers.
func (s *MPMC[T]) Dequeue() (v T, ok bool) { return s.q.Dequeue() }

// TryDequeue removes the head item if one is ready, never blocking;
// see SPMC.TryDequeue. ok=false also covers a producer mid-publish on
// the head rank. Safe for concurrent consumers.
func (s *MPMC[T]) TryDequeue() (v T, ok bool) { return s.q.TryDequeue() }

// EnqueueBatch inserts every element of vs with a single tail
// fetch-and-add for the whole run, preserving per-producer FIFO order
// even when ranks are lost to gaps. Safe for concurrent producers.
func (s *MPMC[T]) EnqueueBatch(vs []T) { s.q.EnqueueBatch(vs) }

// DequeueBatch removes up to len(dst) items with a single rank
// reservation; see SPMC.DequeueBatch for the partial-batch and closed
// semantics. Safe for concurrent consumers.
func (s *MPMC[T]) DequeueBatch(dst []T) (n int, ok bool) { return s.q.DequeueBatch(dst) }

// Close marks the queue closed. Call only after every producer's
// final Enqueue has returned.
func (s *MPMC[T]) Close() { s.q.Close() }

// Len approximates the number of queued items.
func (s *MPMC[T]) Len() int { return s.q.Len() }

// Cap returns the capacity.
func (s *MPMC[T]) Cap() int { return s.q.Cap() }

// Gaps returns the number of successful gap announcements made by
// producers. Always available; a non-zero value means the queue ran
// full at some point (consider a larger capacity).
func (s *MPMC[T]) Gaps() int64 { return s.q.Gaps() }

// Stats snapshots the queue's instrumentation counters. Without
// WithInstrumentation only the always-on GapsCreated counter is
// populated.
func (s *MPMC[T]) Stats() Stats { return s.q.Stats() }
