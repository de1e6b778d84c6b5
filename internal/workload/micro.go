package workload

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/core"
	"ffq/internal/obs"
)

// Variant selects which FFQ implementation serves as the submission
// queue of the microbenchmark.
type Variant uint8

const (
	// VariantSPMC is the paper's default (FFQ^s submission queues).
	VariantSPMC Variant = iota
	// VariantMPMC uses FFQ^m (the configuration of Figure 2).
	VariantMPMC
	// VariantSharded is one shared core.Sharded queue with an
	// exclusive FFQ^s lane per producer. Only RunFanIn accepts it; the
	// microbenchmark gives each producer its own queue.
	VariantSharded
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantSPMC:
		return "spmc"
	case VariantMPMC:
		return "mpmc"
	case VariantSharded:
		return "sharded"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// MicroConfig parameterizes the submission/response microbenchmark of
// Section V-A. Each producer owns one submission queue consumed by
// ConsumersPerProducer consumers; every consumer echoes each item into
// its own SPSC response queue, which the producer drains.
type MicroConfig struct {
	// Variant selects the submission queue implementation.
	Variant Variant
	// Layout is the cell memory layout for all queues.
	Layout core.Layout
	// Producers is the number of producer threads, each with its own
	// submission queue (the paper's Figure 2 uses 1 and 8).
	Producers int
	// ConsumersPerProducer (>= 1).
	ConsumersPerProducer int
	// ItemsPerProducer is the number of round-trips each producer
	// completes.
	ItemsPerProducer int
	// QueueSize is the submission queue capacity (power of two).
	QueueSize int
	// RespQueueSize is the response queue capacity (defaults to
	// QueueSize when 0; always at least 2).
	RespQueueSize int
	// Policy places producer/consumer pairs on CPUs.
	Policy affinity.Policy
	// Topology used for placement (Detect() when nil).
	Topology *affinity.Topology
	// MeasureLatency switches the run into latency mode: one shared
	// obs.Recorder with per-op latency histograms is attached to every
	// submission queue (Stats.EnqLatency/DeqLatency), and each item is
	// stamped with its submission time so the queue sojourn (enqueue
	// start to dequeue completion) is recorded into MicroResult.Sojourn.
	// Off by default so throughput runs measure the uninstrumented
	// fast path.
	MeasureLatency bool
	// StallThreshold attaches the recorder with its stall watchdog
	// armed; waits longer than this surface in
	// Stats.StallEvents/RecentStalls.
	StallThreshold time.Duration
	// StallEvery injects an artificial stall on the first consumer of
	// each submission queue: after every StallEvery items it stops
	// consuming for StallDuration. 0 disables injection. Used to
	// validate the stall watchdog and tail-latency gates against a
	// known disturbance.
	StallEvery int
	// StallDuration is the injected stall (DefaultStallDuration when 0
	// and StallEvery > 0).
	StallDuration time.Duration
}

// DefaultStallDuration is the injected consumer stall length when
// MicroConfig.StallEvery is set without an explicit duration.
const DefaultStallDuration = 500 * time.Microsecond

// MicroResult is the outcome of one microbenchmark run.
type MicroResult struct {
	// Items is the number of completed round-trips.
	Items int
	// Elapsed is the wall time of the parallel phase.
	Elapsed time.Duration
	// Stats aggregates the submission queues' instrumentation
	// counters; nil unless MicroConfig.MeasureLatency or
	// StallThreshold was set.
	Stats *obs.Stats
	// Sojourn is the end-to-end submission-queue sojourn distribution
	// (item stamped at enqueue start, recorded at dequeue completion);
	// nil unless MicroConfig.MeasureLatency was set.
	Sojourn *obs.LatencySnapshot
	// Stalled is the measured wall time of the injected StallEvery
	// stalls, summed, so a gate can compare throughput net of the
	// disturbance it injected.
	Stalled time.Duration
}

// stallClock performs injected stalls and sums how long they took. A
// stall yields rather than sleeps: a sleeping goroutine is parked, the
// timer often readies it on its peer's P, and on a loaded host the two
// then share that P for milliseconds — a scheduler cost several times
// the stall itself, which no queue causes.
type stallClock struct{ ns atomic.Int64 }

func (s *stallClock) stall(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
		runtime.Gosched()
	}
	s.ns.Add(int64(time.Since(t0)))
}

// MopsPerSec returns round-trips per second in millions.
func (r MicroResult) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Items) / r.Elapsed.Seconds() / 1e6
}

// submission abstracts the bounded FFQ variants behind one face.
type submission interface {
	enqueue(v uint64)
	dequeue() (uint64, bool)
	close()
}

type spmcSub struct{ q *core.SPMC[uint64] }

func (s spmcSub) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s spmcSub) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s spmcSub) close()                  { s.q.Close() }

type mpmcSub struct{ q *core.MPMC[uint64] }

func (s mpmcSub) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s mpmcSub) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s mpmcSub) close()                  { s.q.Close() }

func newSubmission(cfg MicroConfig, rec *obs.Recorder) (submission, error) {
	opts := []core.Option{core.WithLayout(cfg.Layout), core.WithRecorder(rec)}
	switch cfg.Variant {
	case VariantSPMC:
		q, err := core.NewSPMC[uint64](cfg.QueueSize, opts...)
		return spmcSub{q}, err
	case VariantMPMC:
		q, err := core.NewMPMC[uint64](cfg.QueueSize, opts...)
		return mpmcSub{q}, err
	default:
		return nil, fmt.Errorf("workload: RunMicro runs spmc and mpmc, not %v", cfg.Variant)
	}
}

// RunMicro executes the microbenchmark once.
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	if cfg.Producers < 1 || cfg.ConsumersPerProducer < 1 || cfg.ItemsPerProducer < 1 {
		return MicroResult{}, fmt.Errorf("workload: non-positive micro config %+v", cfg)
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1 << 10
	}
	if cfg.RespQueueSize == 0 {
		cfg.RespQueueSize = cfg.QueueSize
	}
	if cfg.RespQueueSize < 2 {
		cfg.RespQueueSize = 2
	}
	top := cfg.Topology
	if top == nil {
		top = affinity.Detect()
	}

	if cfg.StallEvery > 0 && cfg.StallDuration <= 0 {
		cfg.StallDuration = DefaultStallDuration
	}
	var rec *obs.Recorder
	if cfg.MeasureLatency || cfg.StallThreshold > 0 {
		rec = obs.NewRecorder()
		if cfg.MeasureLatency {
			rec.EnableOpLatency()
		}
		if cfg.StallThreshold > 0 {
			rec.EnableStallWatchdog(cfg.StallThreshold, 0)
		}
	}

	// Latency mode replaces the item payload with the submission
	// timestamp; every consumer records into one shared lock-free
	// histogram.
	var sojourn *obs.LatencyHist
	if cfg.MeasureLatency {
		sojourn = &obs.LatencyHist{}
	}
	var stalls stallClock

	type producerState struct {
		sub   submission
		resps []*core.SPSC[uint64]
	}
	states := make([]*producerState, cfg.Producers)
	for p := range states {
		sub, err := newSubmission(cfg, rec)
		if err != nil {
			return MicroResult{}, err
		}
		st := &producerState{sub: sub}
		for c := 0; c < cfg.ConsumersPerProducer; c++ {
			rq, err := core.NewSPSC[uint64](cfg.RespQueueSize, core.WithLayout(cfg.Layout))
			if err != nil {
				return MicroResult{}, err
			}
			st.resps = append(st.resps, rq)
		}
		states[p] = st
	}

	var ready, done sync.WaitGroup
	start := make(chan struct{})

	// maxOutstanding bounds in-flight items so the FFQ "always an
	// empty slot" assumption holds by construction (the paper's
	// implicit flow control, Section I observation 2).
	maxOutstanding := cfg.QueueSize / 2
	if m := cfg.RespQueueSize / 2 * cfg.ConsumersPerProducer; m < maxOutstanding {
		maxOutstanding = m
	}
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}

	for p, st := range states {
		asn := top.Assign(cfg.Policy, p)
		// Consumers.
		for c := 0; c < cfg.ConsumersPerProducer; c++ {
			ready.Add(1)
			done.Add(1)
			go func(st *producerState, p, c int) {
				defer done.Done()
				// Goroutine labels make the consumer pool attributable
				// in CPU and goroutine profiles (pprof -tagfocus).
				pprof.Do(context.Background(), pprof.Labels(
					"ffq_role", "consumer",
					"ffq_queue", strconv.Itoa(p),
				), func(context.Context) {
					undo, _ := affinity.Pin(asn.Consumer)
					defer undo()
					ready.Done()
					<-start
					rq := st.resps[c]
					// Stall injection targets the first consumer only, so
					// the disturbance is a single slow participant rather
					// than a uniformly slower pool.
					stallN := 0
					if c == 0 {
						stallN = cfg.StallEvery
					}
					processed := 0
					for {
						v, ok := st.sub.dequeue()
						if !ok {
							rq.Close()
							return
						}
						if sojourn != nil {
							sojourn.Record(time.Now().UnixNano() - int64(v))
						}
						rq.Enqueue(v)
						if stallN > 0 {
							if processed++; processed >= stallN {
								processed = 0
								stalls.stall(cfg.StallDuration)
							}
						}
					}
				})
			}(st, p, c)
		}
		// Producer.
		ready.Add(1)
		done.Add(1)
		go func(st *producerState, p int) {
			defer done.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "producer",
				"ffq_queue", strconv.Itoa(p),
			), func(context.Context) {
				undo, _ := affinity.Pin(asn.Producer)
				defer undo()
				ready.Done()
				<-start
				sent, received, outstanding := 0, 0, 0
				for received < cfg.ItemsPerProducer {
					for sent < cfg.ItemsPerProducer && outstanding < maxOutstanding {
						if sojourn != nil {
							st.sub.enqueue(uint64(time.Now().UnixNano()))
						} else {
							st.sub.enqueue(uint64(sent + 1))
						}
						sent++
						outstanding++
					}
					drained := false
					for _, rq := range st.resps {
						if _, ok := rq.TryDequeue(); ok {
							received++
							outstanding--
							drained = true
						}
					}
					if !drained {
						runtime.Gosched()
					}
				}
				st.sub.close()
			})
		}(st, p)
	}

	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	res := MicroResult{
		Items:   cfg.Producers * cfg.ItemsPerProducer,
		Elapsed: time.Since(t0),
		Stalled: time.Duration(stalls.ns.Load()),
	}
	if rec != nil {
		s := rec.Snapshot()
		res.Stats = &s
	}
	if sojourn != nil {
		res.Sojourn = sojourn.Snapshot()
	}
	return res, nil
}

// pin is a tiny affinity shim for workloads that carry raw CPU lists.
func pin(cpus []int) (func(), error) {
	return affinity.Pin(cpus)
}
