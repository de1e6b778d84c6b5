package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ffq"
)

// spmcCap is the queue capacity of spmc-pair (the paper's Fig. 3 shape
// at one of its mid-range sizes).
const spmcCap = 1024

// spmcSampleEvery is how often (in items) the spmc-pair producer checks
// for stop, and the block size over which a traced run times Enqueue
// and Dequeue.
const spmcSampleEvery = 4096

// spmcSetupReps is how many constructions one setup_s sample averages:
// one takes microseconds, too short to time alone.
const spmcSetupReps = 64

// runSPMC is the spmc-pair workload: ffq.SPMC[uint64] with one producer
// calling Enqueue and one consumer calling blocking Dequeue, closed
// loop. Only the queue runs.
func runSPMC(cfg *config, d time.Duration, tr *tracer) (*runResult, error) {
	r := &runResult{failures: map[string]int64{}, probeBatch: 1, layers: []string{"core"}}
	rounds := setupRounds
	if tr != nil {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		secs, failed := spmcSetup(cfg.seed)
		r.setup = append(r.setup, secs)
		r.attempted += spmcSetupReps
		r.failed += failed
		r.failures["setup"] += failed
	}
	a0 := mallocs()
	p, err := spmcRuns(cfg.seed, d, tr != nil, tr)
	if err != nil {
		return nil, err
	}
	r.allocs = mallocs() - a0
	r.rssMB = maxRSSMB()
	r.windows = p.windows
	r.queueDepth = p.depths
	r.delivered = int64(p.delivered)
	r.attempted += int64(p.published)
	r.failed += p.failures
	p.chkTotals.record(r.failures)

	groups, chk, err := spmcHandoff(cfg.seed, handoffGroups, handoffPerGroup)
	if err != nil {
		return nil, err
	}
	r.setLatency(groups)
	r.attempted += handoffGroups * handoffPerGroup
	r.failed += chk.failures()
	chk.record(r.failures)
	if tr != nil {
		r.layer = p.coreMetrics()
	}
	return r, nil
}

// spmcSetup times queue construction until the first item has crossed
// it, averaged over spmcSetupReps constructions.
func spmcSetup(seed uint64) (secs float64, failed int64) {
	start := time.Now()
	for i := 0; i < spmcSetupReps; i++ {
		q, err := ffq.NewSPMC[uint64](spmcCap)
		if err != nil {
			panic(err) // a constant, valid capacity
		}
		got := make(chan uint64, 1)
		go func() {
			v, _ := q.Dequeue()
			got <- v
		}()
		q.Enqueue(itemValue(seed, 0))
		if <-got != itemValue(seed, 0) {
			failed++
		}
		q.Close()
	}
	return time.Since(start).Seconds() / spmcSetupReps, failed
}

// The handoff phase measures spmc-pair's latency: handoffGroups groups
// of handoffPerGroup single-item handoffs.
const handoffGroups, handoffPerGroup = 10, 20000

// spmcHandoff measures the one-way Enqueue-to-Dequeue latency of single
// items on an otherwise empty queue: the producer enqueues one item,
// waits until the consumer has taken it, and repeats. (In the closed
// loop itself latency is queue residence, which flips between an
// empty and a full queue from run to run.)
func spmcHandoff(seed uint64, groups, perGroup int) ([][]int64, checker, error) {
	chk := checker{seed: seed}
	q, err := ffq.NewSPMC[uint64](spmcCap)
	if err != nil {
		return nil, chk, err
	}
	out := make([][]int64, groups)
	for i := range out {
		out[i] = make([]int64, 0, perGroup)
	}
	var sent atomic.Int64
	var taken atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		//ffq:ignore spin-backoff not a spin loop: every iteration blocks in Dequeue
		for {
			v, ok := q.Dequeue()
			now := nowNS()
			if !ok {
				return
			}
			seq := v >> 32
			chk.observe(seq, v == itemValue(seed, seq))
			if g := int(seq) / perGroup; g < groups {
				out[g] = append(out[g], now-sent.Load())
			}
			taken.Store(seq + 1)
		}
	}()
	total := uint64(groups * perGroup)
	for seq := uint64(0); seq < total; seq++ {
		sent.Store(nowNS())
		q.Enqueue(itemValue(seed, seq))
		for spins := 1; taken.Load() != seq+1; spins++ {
			if spins%1024 == 0 {
				runtime.Gosched()
			}
		}
	}
	q.Close()
	<-done
	chk.finish(total)
	return out, chk, nil
}

// spmcPair accumulates closed-loop producer/consumer runs.
type spmcPair struct {
	windows              []window
	published, delivered uint64
	failures             int64
	chkTotals            checker
	stats                ffq.Stats
	// depths holds each sub-run's mean queue depth over its measured
	// window, sampled once per spmcSampleEvery items.
	depths []float64
	// enqNS and deqNS sum the timed blocks (instrumented runs only);
	// enqOps and deqOps count the operations inside them.
	enqNS, deqNS, enqOps, deqOps int64
}

// spmcSubRun is the length of one closed-loop sub-run. How far apart
// producer and consumer settle on a fresh queue (its mean depth) sets
// the pair's rate: a shallower queue runs faster. The depth varies from
// queue to queue, so spmc-pair measures many short runs on fresh
// queues and reports the median rate instead of one long run. On a
// 2-vCPU host, sub-run rates spread continuously over about 10-15 M
// items/s, with rare sub-runs near 7 or 18; results/ keeps them.
const spmcSubRun = time.Second

// spmcWarmUp precedes each sub-run's measured window.
const spmcWarmUp = 100 * time.Millisecond

// spmcRuns runs the pair on fresh queues, one window each, until d is
// covered.
func spmcRuns(seed uint64, d time.Duration, instrumented bool, tr *tracer) (*spmcPair, error) {
	p := &spmcPair{}
	for n := max(1, int(d/spmcSubRun)); n > 0; n-- {
		if err := p.run(seed, min(d, spmcSubRun), instrumented, tr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// run runs the pair once for spmcWarmUp plus d. instrumented builds the
// queue WithInstrumentation and times Enqueue/Dequeue blocks; tr, when
// set, records a span per sampled block.
func (p *spmcPair) run(seed uint64, d time.Duration, instrumented bool, tr *tracer) error {
	var opts []ffq.Option
	if instrumented {
		opts = append(opts, ffq.WithInstrumentation())
	}
	q, err := ffq.NewSPMC[uint64](spmcCap, opts...)
	if err != nil {
		return err
	}
	chk := checker{seed: seed}
	m := &meter{}
	var published, delivered uint64
	var enqNS, deqNS, enqOps, deqOps int64
	var depthSum, depthN int64

	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		var seq uint64
		var blockStart int64
		var span uint64
		//ffq:ignore spin-backoff not a spin loop: every iteration is an Enqueue, which has its own backoff when the queue is full
		for {
			if seq%spmcSampleEvery == 0 {
				now := nowNS()
				if instrumented && seq > 0 {
					enqNS += now - blockStart
					enqOps += spmcSampleEvery
					tr.end(span, int64(q.Len()))
				}
				switch m.phase.Load() {
				case phaseStop:
					q.Close()
					published = seq
					return
				case phaseMeasure:
					depthSum += int64(q.Len())
					depthN++
				}
				blockStart = now
				if (seq/spmcSampleEvery)%16 == 0 {
					span = tr.begin("core.enqueue_block", 0)
				} else {
					span = 0
				}
			}
			q.Enqueue(itemValue(seed, seq))
			seq++
		}
	}()

	consDone := make(chan struct{})
	go func() {
		defer close(consDone)
		var n uint64
		blockStart := nowNS()
		span := tr.begin("core.dequeue_block", 0)
		for {
			v, ok := q.Dequeue()
			if !ok {
				break
			}
			seq := v >> 32
			chk.observe(seq, v == itemValue(seed, seq))
			n++
			if n%spmcSampleEvery == 0 {
				m.delivered.Store(int64(n))
				if instrumented {
					now := nowNS()
					deqNS += now - blockStart
					deqOps += spmcSampleEvery
					tr.end(span, int64(q.Len()))
					span = 0
					if (n/spmcSampleEvery)%16 == 0 {
						span = tr.begin("core.dequeue_block", 0)
					}
					blockStart = now
				}
			}
		}
		delivered = n
	}()

	p.windows = append(p.windows, m.measure(spmcWarmUp, d, 1)...)
	<-prodDone
	select {
	case <-consDone:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("spmc-pair: consumer did not drain the closed queue")
	}
	chk.finish(published)
	p.published += published
	p.delivered += delivered
	p.failures += chk.failures()
	p.depths = append(p.depths, float64(depthSum)/float64(max(depthN, 1)))
	p.chkTotals.lost += chk.lost
	p.chkTotals.dup += chk.dup
	p.chkTotals.corrupt += chk.corrupt
	p.enqNS, p.deqNS = p.enqNS+enqNS, p.deqNS+deqNS
	p.enqOps, p.deqOps = p.enqOps+enqOps, p.deqOps+deqOps
	if instrumented {
		st := q.Stats()
		p.stats.Enqueues += st.Enqueues
		p.stats.Dequeues += st.Dequeues
		p.stats.FullSpins += st.FullSpins
		p.stats.EmptySpins += st.EmptySpins
		p.stats.ProducerYields += st.ProducerYields
		p.stats.ConsumerYields += st.ConsumerYields
		p.stats.GapsSkipped += st.GapsSkipped
	}
	return nil
}

// coreMetrics turns an instrumented run into the core layer's metrics.
func (p *spmcPair) coreMetrics() map[string]float64 {
	ops := float64(max(p.stats.Enqueues+p.stats.Dequeues, 1))
	deq := float64(max(p.stats.Dequeues, 1))
	return map[string]float64{
		"core.enqueue_ns":          float64(p.enqNS) / float64(max(p.enqOps, 1)),
		"core.dequeue_ns":          float64(p.deqNS) / float64(max(p.deqOps, 1)),
		"core.full_spins_per_op":   float64(p.stats.FullSpins) / float64(max(p.stats.Enqueues, 1)),
		"core.empty_spins_per_op":  float64(p.stats.EmptySpins) / deq,
		"core.yields_per_op":       float64(p.stats.ProducerYields+p.stats.ConsumerYields) / ops,
		"core.gaps_skipped_per_op": float64(p.stats.GapsSkipped) / deq,
		"core.queue_depth":         median(p.depths),
	}
}
