// Package queuetest provides reusable conformance tests for every
// queue implementation behind the internal/queue interface: FIFO order
// under a single thread, exactly-once delivery under concurrency, and
// per-producer order preservation. Each queue package's _test file
// instantiates these against its own factory.
package queuetest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ffq/internal/linearizability"
	"ffq/internal/queue"
)

// Options tunes the conformance run for a queue's properties.
type Options struct {
	// Producers and Consumers bound the concurrency (some queues are
	// single-producer or single-consumer).
	Producers, Consumers int
	// ItemsPerProducer is the number of items each producer sends.
	ItemsPerProducer int
	// Capacity passed to the factory.
	Capacity int
	// Blocking marks queues whose Dequeue blocks on empty instead of
	// returning ok=false (the FFQ family: a reserved rank cannot be
	// abandoned). Such queues must never be polled when provably
	// empty, so the kit claims a ticket before every dequeue.
	Blocking bool
}

// DefaultOptions is a moderate stress configuration.
func DefaultOptions() Options {
	return Options{Producers: 4, Consumers: 4, ItemsPerProducer: 5000, Capacity: 256}
}

// Sequential checks strict FIFO order single-threaded, including
// several wrap-arounds of bounded queues.
func Sequential(t *testing.T, f queue.Factory, opts Options) {
	t.Helper()
	const capacity = 16
	shared := f.New(capacity, 1)
	q := shared.Register()
	next := uint64(1)
	expect := uint64(1)
	for round := 0; round < 10; round++ {
		for i := 0; i < capacity; i++ {
			q.Enqueue(next)
			next++
		}
		for i := 0; i < capacity; i++ {
			v, ok := dequeueRetry(q)
			if !ok {
				t.Fatalf("%s: queue empty with %d items outstanding", f.Name, capacity-i)
			}
			if v != expect {
				t.Fatalf("%s: got %d, want %d", f.Name, v, expect)
			}
			expect++
		}
	}
	if !opts.Blocking {
		if v, ok := q.Dequeue(); ok {
			t.Fatalf("%s: drained queue returned %d", f.Name, v)
		}
	}
}

// Concurrent checks exactly-once delivery and per-producer FIFO order
// under opts' concurrency. Values are producer*Items+seq+1. Consumers
// claim tickets so that exactly as many dequeues are attempted as
// items exist; this keeps blocking queues from wedging on the last
// item.
func Concurrent(t *testing.T, f queue.Factory, opts Options) {
	t.Helper()
	total := int64(opts.Producers * opts.ItemsPerProducer)
	shared := f.New(opts.Capacity, opts.Producers+opts.Consumers)
	got := make([]atomic.Int32, total)
	var tickets atomic.Int64

	var wg sync.WaitGroup
	for p := 0; p < opts.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			q := shared.Register()
			base := uint64(p * opts.ItemsPerProducer)
			for i := 0; i < opts.ItemsPerProducer; i++ {
				q.Enqueue(base + uint64(i) + 1)
			}
		}(p)
	}
	for c := 0; c < opts.Consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := shared.Register()
			lastSeen := make([]int64, opts.Producers)
			for i := range lastSeen {
				lastSeen[i] = -1
			}
			for tickets.Add(1) <= total {
				v, ok := q.Dequeue()
				for !ok {
					runtime.Gosched() // empty observation; let producers run
					v, ok = q.Dequeue()
				}
				v--
				p := int(v) / opts.ItemsPerProducer
				seq := int64(v) % int64(opts.ItemsPerProducer)
				if p < 0 || p >= opts.Producers {
					t.Errorf("%s: bogus value %d", f.Name, v+1)
					return
				}
				if seq <= lastSeen[p] {
					t.Errorf("%s: producer %d order violated: %d after %d", f.Name, p, seq, lastSeen[p])
					return
				}
				lastSeen[p] = seq
				got[v].Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("%s: item %d delivered %d times", f.Name, i+1, n)
		}
	}
}

// UnboundedGrowth checks behaviour only an unbounded queue can have:
// it absorbs a burst of many times the capacity hint with no consumer
// running at all (a bounded queue would block or refuse), and then
// delivers every item in FIFO order.
func UnboundedGrowth(t *testing.T, f queue.Factory, opts Options) {
	t.Helper()
	if f.Bounded {
		t.Fatalf("%s: UnboundedGrowth called for a bounded queue", f.Name)
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 16
	}
	total := uint64(64 * capacity)
	shared := f.New(capacity, 2)
	q := shared.Register()
	for v := uint64(1); v <= total; v++ {
		q.Enqueue(v)
	}
	for v := uint64(1); v <= total; v++ {
		got, ok := dequeueRetry(q)
		if !ok {
			t.Fatalf("%s: empty with %d items outstanding", f.Name, total-v+1)
		}
		if got != v {
			t.Fatalf("%s: got %d, want %d", f.Name, got, v)
		}
	}
	if !opts.Blocking {
		if v, ok := q.Dequeue(); ok {
			t.Fatalf("%s: drained queue returned %d", f.Name, v)
		}
	}
}

// EmptyBehaviour checks that a fresh non-blocking queue reports empty
// and still works afterwards. Do not call it for Blocking queues.
func EmptyBehaviour(t *testing.T, f queue.Factory) {
	t.Helper()
	shared := f.New(16, 1)
	q := shared.Register()
	if v, ok := q.Dequeue(); ok {
		t.Fatalf("%s: empty queue returned %d", f.Name, v)
	}
	q.Enqueue(9)
	if v, ok := dequeueRetry(q); !ok || v != 9 {
		t.Fatalf("%s: got %d,%v after empty poll", f.Name, v, ok)
	}
}

// TryDequeuer is the optional non-blocking poll a queue adapter may
// expose next to Dequeue. The contract: ok=false means nothing was
// ready and nothing was reserved — the queue must behave as if the
// call never happened.
type TryDequeuer interface {
	TryDequeue() (uint64, bool)
}

// TryDequeue checks the non-blocking poll contract: empty polls return
// false without reserving anything (the queue still delivers in order
// afterwards), and a concurrent workload drained entirely through
// TryDequeue still sees exactly-once delivery and per-producer FIFO
// order. The factory's queues must implement TryDequeuer.
func TryDequeue(t *testing.T, f queue.Factory, opts Options) {
	t.Helper()

	// Phase 1: empty polls burn nothing, even interleaved with traffic.
	shared := f.New(16, 1)
	q := shared.Register()
	td, ok := q.(TryDequeuer)
	if !ok {
		t.Fatalf("%s: adapter does not implement TryDequeue", f.Name)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if v, ok := td.TryDequeue(); ok {
				t.Fatalf("%s: empty TryDequeue returned %d", f.Name, v)
			}
		}
		lo, hi := uint64(round*2+1), uint64(round*2+2)
		q.Enqueue(lo)
		q.Enqueue(hi)
		for _, want := range []uint64{lo, hi} {
			v, ok := tryDequeueRetry(td)
			if !ok {
				t.Fatalf("%s: TryDequeue empty with %d queued", f.Name, want)
			}
			if v != want {
				t.Fatalf("%s: TryDequeue got %d, want %d", f.Name, v, want)
			}
		}
	}

	// Phase 2: concurrent drain through TryDequeue only. Consumers poll
	// until the shared consumption count covers every produced item, so
	// false returns (empty observations) are part of normal operation.
	total := int64(opts.Producers * opts.ItemsPerProducer)
	shared = f.New(opts.Capacity, opts.Producers+opts.Consumers)
	got := make([]atomic.Int32, total)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < opts.Producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			q := shared.Register()
			base := uint64(p * opts.ItemsPerProducer)
			for i := 0; i < opts.ItemsPerProducer; i++ {
				q.Enqueue(base + uint64(i) + 1)
			}
		}(p)
	}
	for c := 0; c < opts.Consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			td := shared.Register().(TryDequeuer)
			lastSeen := make([]int64, opts.Producers)
			for i := range lastSeen {
				lastSeen[i] = -1
			}
			for consumed.Load() < total {
				v, ok := td.TryDequeue()
				if !ok {
					runtime.Gosched() // empty observation; let producers run
					continue
				}
				consumed.Add(1)
				v--
				p := int(v) / opts.ItemsPerProducer
				seq := int64(v) % int64(opts.ItemsPerProducer)
				if p < 0 || p >= opts.Producers {
					t.Errorf("%s: bogus value %d", f.Name, v+1)
					return
				}
				if seq <= lastSeen[p] {
					t.Errorf("%s: producer %d order violated: %d after %d", f.Name, p, seq, lastSeen[p])
					return
				}
				lastSeen[p] = seq
				got[v].Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if n := got[i].Load(); n != 1 {
			t.Fatalf("%s: item %d delivered %d times through TryDequeue", f.Name, i+1, n)
		}
	}
}

// tryDequeueRetry retries empty TryDequeue observations a bounded
// number of times (single-threaded callers settle immediately; the
// bound only guards against a broken implementation wedging the test).
func tryDequeueRetry(td TryDequeuer) (uint64, bool) {
	for i := 0; i < 1000; i++ {
		if v, ok := td.TryDequeue(); ok {
			return v, true
		}
	}
	return 0, false
}

// dequeueRetry retries empty observations a bounded number of times
// (single-threaded callers should never need many; helping-based
// queues settle within a few).
func dequeueRetry(q queue.Queue) (uint64, bool) {
	for i := 0; i < 1000; i++ {
		if v, ok := q.Dequeue(); ok {
			return v, true
		}
	}
	return 0, false
}

// Linearizable records small concurrent histories of the queue and
// verifies each against the sequential FIFO specification (the
// testing-side counterpart of the paper's Proposition 3). rounds
// windows of (2 producers x 3 ops, 2 consumers x 3 ops) keep the
// checker's search tractable while still interleaving heavily.
func Linearizable(t *testing.T, f queue.Factory, opts Options, rounds int) {
	t.Helper()
	producers, consumers := 2, 2
	if opts.Producers < producers {
		producers = opts.Producers
	}
	if opts.Consumers < consumers {
		consumers = opts.Consumers
	}
	const opsPerWorker = 3
	for r := 0; r < rounds; r++ {
		shared := f.New(64, producers+consumers)
		var rec linearizability.Recorder
		var sessions []*linearizability.Session
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			s := rec.NewSession()
			sessions = append(sessions, s)
			wg.Add(1)
			go func(p int, s *linearizability.Session) {
				defer wg.Done()
				q := shared.Register()
				for i := 0; i < opsPerWorker; i++ {
					v := uint64(p*opsPerWorker + i + 1)
					st := s.Begin()
					q.Enqueue(v)
					s.EndEnqueue(st, v)
				}
			}(p, s)
		}
		total := int64(producers * opsPerWorker)
		var tickets atomic.Int64
		for c := 0; c < consumers; c++ {
			s := rec.NewSession()
			sessions = append(sessions, s)
			wg.Add(1)
			go func(s *linearizability.Session) {
				defer wg.Done()
				q := shared.Register()
				for tickets.Add(1) <= total {
					st := s.Begin()
					v, ok := q.Dequeue()
					if !ok && opts.Blocking {
						t.Error("blocking queue reported empty")
						return
					}
					for !ok {
						// Record the empty observation, then retry
						// with a fresh interval.
						s.EndDequeue(st, 0, false)
						runtime.Gosched()
						st = s.Begin()
						v, ok = q.Dequeue()
					}
					s.EndDequeue(st, v, true)
				}
			}(s)
		}
		wg.Wait()
		h := linearizability.Merge(sessions...)
		if len(h) > linearizability.MaxOps {
			// An empty-retry storm blew past the checker's size cap;
			// dropping ops would be unsound, so skip this round.
			continue
		}
		ok, err := linearizability.CheckFIFO(h)
		if err != nil {
			t.Fatalf("%s: round %d: %v", f.Name, r, err)
		}
		if !ok {
			t.Fatalf("%s: round %d produced a non-linearizable history:\n%v", f.Name, r, h)
		}
	}
}
