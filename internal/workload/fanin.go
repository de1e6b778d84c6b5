package workload

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ffq/internal/core"
	"ffq/internal/obs"
)

// FanInConfig drives P producers into ONE shared queue drained by a
// pool of C consumers — the contended multi-producer shape on which
// the paper's evaluation (Section V) shows FFQ^m paying its
// CAS-per-cell penalty. This is the workload behind the
// sharded-vs-MPMC comparison: identical thread counts and item
// volume, only the queue in the middle changes.
type FanInConfig struct {
	// Variant selects the shared queue: VariantMPMC (one FFQ^m, all
	// producers on one tail word) or VariantSharded (per-producer
	// FFQ^s lanes, each producer holding an exclusive handle).
	Variant Variant
	// Producers and Consumers are the thread counts on each side.
	Producers int
	Consumers int
	// ItemsPerProducer is how many items each producer pushes.
	ItemsPerProducer int
	// QueueSize is the MPMC capacity, or the per-lane capacity for
	// the sharded variant (so the aggregate capacity scales with P
	// exactly as a deployment's would). Power of two; 0 = 1<<12.
	QueueSize int
	// Layout is the cell memory layout.
	Layout core.Layout
	// Instrument attaches a shared recorder and returns its snapshot.
	Instrument bool
}

// FanInResult is the outcome of one fan-in run.
type FanInResult struct {
	// Items is the number of items that crossed the queue.
	Items int
	// Elapsed is the wall time from the start signal until the last
	// consumer finished draining.
	Elapsed time.Duration
	// Gaps is the queue's always-on skipped-rank counter.
	Gaps int64
	// Stats is the instrumentation snapshot; nil unless Instrument.
	Stats *obs.Stats
}

// MopsPerSec returns items through the queue per second, in millions.
func (r FanInResult) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Items) / r.Elapsed.Seconds() / 1e6
}

// shardedSeqBits is the value-encoding split of fan-in items: low
// bits carry the sequence number, high bits the producer index.
const shardedSeqBits = 48

// fanInQueue is the face the two variants share: a per-producer
// enqueue function, the pooled dequeue, and close-after-producers.
type fanInQueue interface {
	enqueuer(p int) (func(uint64), func())
	dequeue() (uint64, bool)
	close()
	gaps() int64
}

type fanInMPMC struct{ q *core.MPMC[uint64] }

func (f fanInMPMC) enqueuer(int) (func(uint64), func()) {
	return func(v uint64) { f.q.Enqueue(v) }, func() {}
}
func (f fanInMPMC) dequeue() (uint64, bool) { return f.q.Dequeue() }
func (f fanInMPMC) close()                  { f.q.Close() }
func (f fanInMPMC) gaps() int64             { return f.q.Gaps() }

type fanInSharded struct{ q *core.Sharded[uint64] }

func (f fanInSharded) enqueuer(int) (func(uint64), func()) {
	h, ok := f.q.Acquire()
	if !ok {
		// lanes = Producers+1 guarantees a lane per producer.
		panic("workload: fan-in lane acquisition failed")
	}
	return func(v uint64) { h.Enqueue(v) }, h.Release
}
func (f fanInSharded) dequeue() (uint64, bool) { return f.q.Dequeue() }
func (f fanInSharded) close()                  { f.q.Close() }
func (f fanInSharded) gaps() int64             { return f.q.Gaps() }

// RunFanIn executes the fan-in workload once.
func RunFanIn(cfg FanInConfig) (FanInResult, error) {
	if cfg.Producers < 1 || cfg.Consumers < 1 || cfg.ItemsPerProducer < 1 {
		return FanInResult{}, fmt.Errorf("workload: non-positive fan-in config %+v", cfg)
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1 << 12
	}
	var rec *obs.Recorder
	if cfg.Instrument {
		rec = obs.NewRecorder()
	}
	opts := []core.Option{core.WithLayout(cfg.Layout), core.WithRecorder(rec)}

	var q fanInQueue
	switch cfg.Variant {
	case VariantMPMC:
		m, err := core.NewMPMC[uint64](cfg.QueueSize, opts...)
		if err != nil {
			return FanInResult{}, err
		}
		q = fanInMPMC{m}
	case VariantSharded:
		s, err := core.NewSharded[uint64](cfg.Producers+1, cfg.QueueSize, opts...)
		if err != nil {
			return FanInResult{}, err
		}
		q = fanInSharded{s}
	default:
		return FanInResult{}, fmt.Errorf("workload: fan-in supports mpmc and sharded, not %v", cfg.Variant)
	}

	var ready, prodDone, done sync.WaitGroup
	start := make(chan struct{})
	var consumed atomic.Int64

	for c := 0; c < cfg.Consumers; c++ {
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "consumer", "ffq_worker", strconv.Itoa(c),
			), func(context.Context) {
				ready.Done()
				<-start
				n := int64(0)
				for {
					if _, ok := q.dequeue(); !ok {
						consumed.Add(n)
						return
					}
					n++
				}
			})
		}(c)
	}
	for p := 0; p < cfg.Producers; p++ {
		ready.Add(1)
		prodDone.Add(1)
		done.Add(1)
		go func(p int) {
			defer done.Done()
			defer prodDone.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "producer", "ffq_worker", strconv.Itoa(p),
			), func(context.Context) {
				enq, release := q.enqueuer(p)
				defer release()
				ready.Done()
				<-start
				tag := uint64(p) << shardedSeqBits
				for i := 0; i < cfg.ItemsPerProducer; i++ {
					enq(tag | uint64(i+1))
				}
			})
		}(p)
	}
	go func() {
		prodDone.Wait()
		q.close()
	}()

	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	res := FanInResult{
		Items:   int(consumed.Load()),
		Elapsed: time.Since(t0),
		Gaps:    q.gaps(),
	}
	if rec != nil {
		s := rec.Snapshot()
		res.Stats = &s
	}
	if want := cfg.Producers * cfg.ItemsPerProducer; res.Items != want {
		return res, fmt.Errorf("workload: fan-in consumed %d of %d items", res.Items, want)
	}
	return res, nil
}
