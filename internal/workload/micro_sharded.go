package workload

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/core"
	"ffq/internal/obs"
)

// The sharded microbenchmark differs structurally from the other
// variants: instead of one submission queue per producer, every
// producer shares ONE core.Sharded queue and holds an exclusive lane
// handle on it — the deployment the sharding exists for. Consumers
// are a single pool draining the shared queue, so an item dequeued by
// consumer c may belong to any producer; the producer index is
// encoded in the item's high bits and the consumer routes the echo
// into the response queue it owns for that producer. Each (consumer,
// producer) pair has its own SPSC response queue, keeping every
// response path single-producer/single-consumer.

// shardedSeqBits is the value-encoding split: low bits carry the
// sequence number, high bits the producer index.
const shardedSeqBits = 48

// shardedRespClamp bounds the per-producer outstanding window (and
// with it the response-queue capacity). The other variants let the
// window grow with the queue size; here the response plane is P*C*P
// queues, so an unbounded window would turn the large-lane sweep
// points into allocation benchmarks.
const shardedRespClamp = 8192

// runMicroSharded executes the microbenchmark for VariantSharded.
// cfg.QueueSize is the per-lane capacity; the queue has Producers+1
// lanes, so every producer holds an exclusive wait-free lane and lane
// 0 stays open for the shared fallback path (unused here, but the
// layout matches production use).
func runMicroSharded(cfg MicroConfig, top *affinity.Topology, rec *obs.Recorder) (MicroResult, error) {
	if cfg.ItemsPerProducer >= 1<<shardedSeqBits {
		return MicroResult{}, fmt.Errorf("workload: sharded variant encodes the sequence in %d bits, got %d items", shardedSeqBits, cfg.ItemsPerProducer)
	}
	lanes := cfg.Producers + 1
	q, err := core.NewSharded[uint64](lanes, cfg.QueueSize,
		core.WithLayout(cfg.Layout), core.WithRecorder(rec))
	if err != nil {
		return MicroResult{}, err
	}

	maxOutstanding := cfg.QueueSize / 2
	if maxOutstanding > shardedRespClamp {
		maxOutstanding = shardedRespClamp
	}
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	if batch > maxOutstanding {
		batch = maxOutstanding
	}
	if rem := cfg.ItemsPerProducer % batch; rem != 0 {
		cfg.ItemsPerProducer += batch - rem
	}
	respCap := 2
	for respCap < maxOutstanding {
		respCap <<= 1
	}

	// resps[ci][p] carries producer p's items echoed by consumer ci.
	consumers := cfg.Producers * cfg.ConsumersPerProducer
	resps := make([][]*core.SPSC[uint64], consumers)
	for ci := range resps {
		resps[ci] = make([]*core.SPSC[uint64], cfg.Producers)
		for p := range resps[ci] {
			rq, err := core.NewSPSC[uint64](respCap, core.WithLayout(cfg.Layout))
			if err != nil {
				return MicroResult{}, err
			}
			resps[ci][p] = rq
		}
	}

	var ready, prodDone, done sync.WaitGroup
	start := make(chan struct{})
	var stalls stallClock

	for ci := 0; ci < consumers; ci++ {
		ready.Add(1)
		done.Add(1)
		go func(ci int) {
			defer done.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "consumer",
				"ffq_queue", "sharded",
			), func(context.Context) {
				undo, _ := affinity.Pin(top.Assign(cfg.Policy, ci%cfg.Producers).Consumer)
				defer undo()
				ready.Done()
				<-start
				route := func(v uint64) {
					resps[ci][v>>shardedSeqBits].Enqueue(v)
				}
				// Stall injection targets consumer 0 of the shared pool
				// (the sharded items carry no timestamps — their high
				// bits encode the producer — so latency mode here means
				// per-op recorder histograms plus this disturbance).
				stallN := 0
				if ci == 0 {
					stallN = cfg.StallEvery
				}
				processed := 0
				if batch > 1 {
					buf := make([]uint64, batch)
					for {
						n, ok := q.DequeueBatch(buf)
						for i := 0; i < n; i++ {
							route(buf[i])
						}
						if !ok {
							return
						}
						if stallN > 0 {
							if processed += n; processed >= stallN {
								processed = 0
								stalls.stall(cfg.StallDuration)
							}
						}
					}
				}
				for {
					v, ok := q.Dequeue()
					if !ok {
						return
					}
					route(v)
					if stallN > 0 {
						if processed++; processed >= stallN {
							processed = 0
							stalls.stall(cfg.StallDuration)
						}
					}
				}
			})
		}(ci)
	}

	for p := 0; p < cfg.Producers; p++ {
		ready.Add(1)
		prodDone.Add(1)
		done.Add(1)
		go func(p int) {
			defer done.Done()
			defer prodDone.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "producer",
				"ffq_queue", strconv.Itoa(p),
			), func(context.Context) {
				undo, _ := affinity.Pin(top.Assign(cfg.Policy, p).Producer)
				defer undo()
				h, ok := q.Acquire()
				if !ok {
					// Producers+1 lanes guarantee a lane per producer.
					panic("workload: sharded lane acquisition failed")
				}
				defer h.Release()
				ready.Done()
				<-start
				tag := uint64(p) << shardedSeqBits
				sent, received, outstanding := 0, 0, 0
				var batchBuf []uint64
				if batch > 1 {
					batchBuf = make([]uint64, batch)
				}
				for received < cfg.ItemsPerProducer {
					if batch > 1 {
						for sent < cfg.ItemsPerProducer && outstanding+batch <= maxOutstanding {
							for i := range batchBuf {
								batchBuf[i] = tag | uint64(sent+i+1)
							}
							h.EnqueueBatch(batchBuf)
							sent += batch
							outstanding += batch
						}
					} else {
						for sent < cfg.ItemsPerProducer && outstanding < maxOutstanding {
							h.Enqueue(tag | uint64(sent+1))
							sent++
							outstanding++
						}
					}
					drained := false
					for ci := 0; ci < consumers; ci++ {
						if _, ok := resps[ci][p].TryDequeue(); ok {
							received++
							outstanding--
							drained = true
						}
					}
					if !drained {
						runtime.Gosched()
					}
				}
			})
		}(p)
	}
	// Close once every producer released its lane: the sharded Close
	// contract requires all final enqueues ordered before it.
	go func() {
		prodDone.Wait()
		q.Close()
	}()

	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	res := MicroResult{
		Items:   cfg.Producers * cfg.ItemsPerProducer,
		Elapsed: time.Since(t0),
		Stalled: time.Duration(stalls.ns.Load()),
		Lanes:   q.Lanes(),
		LaneCap: q.LaneCap(),
	}
	if rec != nil {
		s := rec.Snapshot()
		res.Stats = &s
	}
	return res, nil
}
