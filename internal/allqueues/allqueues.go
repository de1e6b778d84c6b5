// Package allqueues adapts every queue implementation in this module
// to the common benchmarking interface of internal/queue and exposes
// the registry the comparative harness (the paper's Figure 8) sweeps
// over.
package allqueues

import (
	"fmt"

	"ffq/internal/ccqueue"
	"ffq/internal/chanq"
	"ffq/internal/core"
	"ffq/internal/htmqueue"
	"ffq/internal/lcrq"
	"ffq/internal/msqueue"
	"ffq/internal/queue"
	"ffq/internal/vyukov"
	"ffq/internal/wfqueue"
)

// ffqMPMCAdapter drops the ok result of the FFQ dequeue (it blocks
// rather than reporting empty; see queue.Queue's contract).
type ffqMPMCAdapter struct{ q *core.MPMC[uint64] }

func (a ffqMPMCAdapter) Enqueue(v uint64) { a.q.Enqueue(v) }
func (a ffqMPMCAdapter) Dequeue() (uint64, bool) {
	return a.q.Dequeue()
}
func (a ffqMPMCAdapter) TryDequeue() (uint64, bool)            { return a.q.TryDequeue() }
func (a ffqMPMCAdapter) EnqueueBatch(vs []uint64)              { a.q.EnqueueBatch(vs) }
func (a ffqMPMCAdapter) DequeueBatch(dst []uint64) (int, bool) { return a.q.DequeueBatch(dst) }
func (a ffqMPMCAdapter) Close()                                { a.q.Close() }

type ffqSPMCAdapter struct{ q *core.SPMC[uint64] }

func (a ffqSPMCAdapter) Enqueue(v uint64) { a.q.Enqueue(v) }
func (a ffqSPMCAdapter) Dequeue() (uint64, bool) {
	return a.q.Dequeue()
}
func (a ffqSPMCAdapter) TryDequeue() (uint64, bool)            { return a.q.TryDequeue() }
func (a ffqSPMCAdapter) EnqueueBatch(vs []uint64)              { a.q.EnqueueBatch(vs) }
func (a ffqSPMCAdapter) DequeueBatch(dst []uint64) (int, bool) { return a.q.DequeueBatch(dst) }
func (a ffqSPMCAdapter) Close()                                { a.q.Close() }

type ffqSPSCAdapter struct{ q *core.SPSC[uint64] }

func (a ffqSPSCAdapter) Enqueue(v uint64) { a.q.Enqueue(v) }
func (a ffqSPSCAdapter) Dequeue() (uint64, bool) {
	return a.q.TryDequeue()
}
func (a ffqSPSCAdapter) TryDequeue() (uint64, bool) { return a.q.TryDequeue() }

// ffqLineAdapter maps Dequeue to the non-blocking poll like the scalar
// SPSC adapter (one consumer owns the head; an empty queue reserves
// nothing) and exposes the native whole-line batch ops.
type ffqLineAdapter struct{ q *core.LineSPSC[uint64] }

func (a ffqLineAdapter) Enqueue(v uint64) { a.q.Enqueue(v) }
func (a ffqLineAdapter) Dequeue() (uint64, bool) {
	return a.q.TryDequeue()
}
func (a ffqLineAdapter) TryDequeue() (uint64, bool)            { return a.q.TryDequeue() }
func (a ffqLineAdapter) EnqueueBatch(vs []uint64)              { a.q.EnqueueBatch(vs) }
func (a ffqLineAdapter) DequeueBatch(dst []uint64) (int, bool) { return a.q.DequeueBatch(dst) }
func (a ffqLineAdapter) Close()                                { a.q.Close() }

type wfAdapter struct{ q *wfqueue.Queue }

func (a wfAdapter) Register() queue.Queue { return a.q.Register() }

type ccAdapter struct{ q *ccqueue.Queue }

func (a ccAdapter) Register() queue.Queue { return a.q.Register() }

// shardedShared hands every registering worker its own producer lane
// (the sharded queue's intended deployment: one wait-free FFQ^s
// enqueue path per producer). Workers beyond the lane count fall back
// to the transient-claim shared path.
type shardedShared struct{ q *core.Sharded[uint64] }

func (s *shardedShared) Register() queue.Queue {
	if p, ok := s.q.Acquire(); ok {
		return shardedLaneView{q: s.q, p: p}
	}
	return shardedSharedView{q: s.q}
}

type shardedLaneView struct {
	q *core.Sharded[uint64]
	p *core.Producer[uint64]
}

func (v shardedLaneView) Enqueue(x uint64)                      { v.p.Enqueue(x) }
func (v shardedLaneView) Dequeue() (uint64, bool)               { return v.q.TryDequeue() }
func (v shardedLaneView) TryDequeue() (uint64, bool)            { return v.q.TryDequeue() }
func (v shardedLaneView) EnqueueBatch(vs []uint64)              { v.p.EnqueueBatch(vs) }
func (v shardedLaneView) DequeueBatch(dst []uint64) (int, bool) { return v.q.DequeueBatch(dst) }
func (v shardedLaneView) Close()                                { v.q.Close() }

type shardedSharedView struct{ q *core.Sharded[uint64] }

func (v shardedSharedView) Enqueue(x uint64)           { v.q.Enqueue(x) }
func (v shardedSharedView) Dequeue() (uint64, bool)    { return v.q.TryDequeue() }
func (v shardedSharedView) TryDequeue() (uint64, bool) { return v.q.TryDequeue() }

// EnqueueBatch on the fallback view claims a lane per item; workers
// that need the amortized path should hold a lane (register while
// lanes are free).
func (v shardedSharedView) EnqueueBatch(vs []uint64) {
	for _, x := range vs {
		v.q.Enqueue(x)
	}
}
func (v shardedSharedView) DequeueBatch(dst []uint64) (int, bool) { return v.q.DequeueBatch(dst) }
func (v shardedSharedView) Close()                                { v.q.Close() }

// laneCapFor splits a total capacity hint over n lanes, rounding each
// lane up to the next power of two (minimum 2) so the sharded queue
// holds at least the requested total.
func laneCapFor(capacity, n int) int {
	per := (capacity + n - 1) / n
	c := 2
	for c < per {
		c <<= 1
	}
	return c
}

// mustLayout builds FFQ queues with the paper's best all-round layout
// (dedicated cache lines).
var ffqLayout = core.WithLayout(core.LayoutPadded)

// Factories returns the full queue registry. Entries whose MaxThreads
// is non-zero are only meaningful up to that many workers (the FFQ
// SPSC/SPMC variants appear in the paper's Figure 8 as single-threaded
// marks).
func Factories() []Named {
	return []Named{
		{
			Factory: queue.Factory{
				Name:  "ffq-mpmc",
				Brief: "FFQ^m, this paper (packed-word DCAS port)",
				New: func(capacity, _ int) queue.Shared {
					q, err := core.NewMPMC[uint64](capacity, ffqLayout)
					check(err)
					return queue.SelfRegistering{Q: ffqMPMCAdapter{q}}
				},
				Bounded: true,
			},
		},
		{
			Factory: queue.Factory{
				Name:  "ffq-sharded",
				Brief: "sharded FFQ^s lanes, one per producer (no producer CAS)",
				New: func(capacity, nthreads int) queue.Shared {
					if nthreads < 1 {
						nthreads = 1
					}
					// nthreads+1 lanes: Acquire grants at most lanes-1
					// exclusive handles (one lane stays open to the shared
					// fallback), so every worker gets its own lane.
					q, err := core.NewSharded[uint64](nthreads+1, laneCapFor(capacity, nthreads), ffqLayout)
					check(err)
					return &shardedShared{q: q}
				},
				Bounded: true,
			},
		},
		{
			MaxThreads: 1,
			Factory: queue.Factory{
				Name:  "ffq-spmc",
				Brief: "FFQ^s, this paper (single producer)",
				New: func(capacity, _ int) queue.Shared {
					q, err := core.NewSPMC[uint64](capacity, ffqLayout)
					check(err)
					return queue.SelfRegistering{Q: ffqSPMCAdapter{q}}
				},
				Bounded: true,
			},
		},
		{
			MaxThreads: 1,
			Factory: queue.Factory{
				Name:  "ffq-spsc",
				Brief: "FFQ SPSC variant (no consumer FAA)",
				New: func(capacity, _ int) queue.Shared {
					q, err := core.NewSPSC[uint64](capacity, ffqLayout)
					check(err)
					return queue.SelfRegistering{Q: ffqSPSCAdapter{q}}
				},
				Bounded: true,
			},
		},
		{
			MaxThreads: 1,
			Factory: queue.Factory{
				Name:  "ffq-line",
				Brief: "FFQ SPSC with multi-value cache-line cells (7 values/line)",
				New: func(capacity, _ int) queue.Shared {
					q, err := core.NewLineSPSC[uint64](capacity)
					check(err)
					return queue.SelfRegistering{Q: ffqLineAdapter{q}}
				},
				Bounded: true,
			},
		},
		{
			Factory: queue.Factory{
				Name:  "wfqueue",
				Brief: "Yang & Mellor-Crummey wait-free queue (WF-10)",
				New: func(_, _ int) queue.Shared {
					return wfAdapter{wfqueue.New()}
				},
			},
		},
		{
			Factory: queue.Factory{
				Name:  "lcrq",
				Brief: "Morrison & Afek LCRQ (packed-cell port)",
				New: func(capacity, _ int) queue.Shared {
					q, err := lcrq.New(capacity)
					check(err)
					return queue.SelfRegistering{Q: q}
				},
			},
		},
		{
			Factory: queue.Factory{
				Name:  "ccqueue",
				Brief: "Fatourou & Kallimanis CC-Queue (CC-Synch combining)",
				New: func(_, _ int) queue.Shared {
					return ccAdapter{ccqueue.New()}
				},
			},
		},
		{
			Factory: queue.Factory{
				Name:  "msqueue",
				Brief: "Michael & Scott lock-free queue",
				New: func(_, _ int) queue.Shared {
					return queue.SelfRegistering{Q: msqueue.New()}
				},
			},
		},
		{
			Factory: queue.Factory{
				Name:  "htm",
				Brief: "circular buffer in (emulated) HTM transactions",
				New: func(capacity, _ int) queue.Shared {
					q, err := htmqueue.New(capacity)
					check(err)
					return queue.SelfRegistering{Q: htmAdapter{q}}
				},
				Bounded: true,
			},
		},
		{
			Factory: queue.Factory{
				Name:  "chan",
				Brief: "buffered Go channel (not in the paper)",
				New: func(capacity, _ int) queue.Shared {
					return queue.SelfRegistering{Q: chanAdapter{chanq.New(capacity)}}
				},
				Bounded: true,
			},
		},
		{
			Factory: queue.Factory{
				Name:  "vyukov",
				Brief: "Vyukov bounded MPMC (the paper's external-queue baseline)",
				New: func(capacity, _ int) queue.Shared {
					q, err := vyukov.New(capacity)
					check(err)
					return queue.SelfRegistering{Q: vyukovAdapter{q}}
				},
				Bounded: true,
			},
		},
	}
}

type htmAdapter struct{ q *htmqueue.Queue }

func (a htmAdapter) Enqueue(v uint64)        { a.q.Enqueue(v) }
func (a htmAdapter) Dequeue() (uint64, bool) { return a.q.Dequeue() }

type chanAdapter struct{ q *chanq.Queue }

func (a chanAdapter) Enqueue(v uint64)        { a.q.Enqueue(v) }
func (a chanAdapter) Dequeue() (uint64, bool) { return a.q.Dequeue() }

type vyukovAdapter struct{ q *vyukov.Queue }

func (a vyukovAdapter) Enqueue(v uint64)        { a.q.Enqueue(v) }
func (a vyukovAdapter) Dequeue() (uint64, bool) { return a.q.Dequeue() }

// Named couples a Factory with registry metadata.
type Named struct {
	queue.Factory
	// MaxThreads restricts the entry to runs with at most this many
	// workers (0 = unrestricted).
	MaxThreads int
}

// ByName returns the named factory or an error listing the valid names.
func ByName(name string) (Named, error) {
	fs := Factories()
	for _, f := range fs {
		if f.Name == name {
			return f, nil
		}
	}
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return Named{}, fmt.Errorf("unknown queue %q (have %v)", name, names)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
