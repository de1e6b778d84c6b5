// Package workload implements the two benchmark workloads of the
// paper's evaluation:
//
//   - Pairs: the comparative benchmark of Section V-G (from Yang &
//     Mellor-Crummey's framework): every thread repeatedly performs an
//     enqueue/dequeue pair on one shared queue, with a 50-150 ns
//     random think time between operations, for a fixed total number
//     of pairs partitioned evenly among threads.
//   - Micro: the SPMC asynchronous-system-call microbenchmark of
//     Section V-A: producers own a submission queue and per-consumer
//     SPSC response queues; consumers echo every submission back.
package workload

import (
	"runtime"
	"sync"
	"time"

	"ffq/internal/obs"
	"ffq/internal/queue"
	"ffq/internal/spin"
)

// PairsConfig parameterizes the comparative pairs benchmark.
type PairsConfig struct {
	// Factory builds the queue under test.
	Factory queue.Factory
	// Threads is the number of workers (the paper sweeps 1..2x cores).
	Threads int
	// TotalPairs is the total number of enqueue/dequeue pairs,
	// partitioned evenly (the paper uses 10^7).
	TotalPairs int
	// Capacity for bounded queues. The paper sizes bounded rings so
	// they never fill in this workload.
	Capacity int
	// DelayMinNS/DelayMaxNS bound the random think time between
	// operations (the paper uses 50 and 150).
	DelayMinNS, DelayMaxNS int64
	// PinCPUs, when non-nil, pins worker i to PinCPUs[i%len].
	PinCPUs [][]int
	// MeasureLatency also records per-operation latency histograms.
	// Timing every operation costs two clock reads per op, so
	// throughput results from latency runs are reported separately.
	MeasureLatency bool
}

// PairsResult is the outcome of one pairs run.
type PairsResult struct {
	// Ops is the number of queue operations performed (2 per pair).
	Ops int
	// Elapsed is the measured wall time of the parallel phase.
	Elapsed time.Duration
	// EnqueueNS and DequeueNS hold per-operation latency histograms
	// when MeasureLatency was set (nil otherwise). DequeueNS includes
	// empty-retry time: it measures "time to obtain an item", the
	// end-to-end quantity an adopter cares about.
	EnqueueNS, DequeueNS *obs.LatencySnapshot
}

// MopsPerSec returns throughput in million operations per second, the
// unit of the paper's Figure 8.
func (r PairsResult) MopsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// RunPairs executes the benchmark once and returns its throughput.
func RunPairs(cfg PairsConfig) PairsResult {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 1 << 16
	}
	shared := cfg.Factory.New(cfg.Capacity, cfg.Threads)
	perThread := cfg.TotalPairs / cfg.Threads
	if perThread < 1 {
		perThread = 1
	}

	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(cfg.Threads)
	done.Add(cfg.Threads)
	enqHists := make([]*obs.LatencyHist, cfg.Threads)
	deqHists := make([]*obs.LatencyHist, cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		go func(w int) {
			defer done.Done()
			if cfg.PinCPUs != nil {
				undo, _ := pin(cfg.PinCPUs[w%len(cfg.PinCPUs)])
				defer undo()
			}
			q := shared.Register()
			delay := spin.NewDelayer(cfg.DelayMinNS, cfg.DelayMaxNS, uint64(w)*2654435761+1)
			var enqH, deqH *obs.LatencyHist
			if cfg.MeasureLatency {
				enqH, deqH = new(obs.LatencyHist), new(obs.LatencyHist)
				enqHists[w], deqHists[w] = enqH, deqH
			}
			ready.Done()
			<-start
			v := uint64(w + 1)
			for i := 0; i < perThread; i++ {
				if enqH != nil {
					t0 := time.Now()
					q.Enqueue(v)
					enqH.Record(time.Since(t0).Nanoseconds())
				} else {
					q.Enqueue(v)
				}
				delay.Wait()
				var t0 time.Time
				if deqH != nil {
					t0 = time.Now()
				}
				_, ok := q.Dequeue()
				for r := 0; !ok; r++ {
					if r >= 64 {
						runtime.Gosched()
					}
					_, ok = q.Dequeue()
				}
				if deqH != nil {
					deqH.Record(time.Since(t0).Nanoseconds())
				}
				delay.Wait()
			}
		}(w)
	}
	ready.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	res := PairsResult{Ops: 2 * perThread * cfg.Threads, Elapsed: time.Since(t0)}
	if cfg.MeasureLatency {
		res.EnqueueNS, res.DequeueNS = mergeHists(enqHists), mergeHists(deqHists)
	}
	return res
}

// mergeHists folds the per-worker histograms into one snapshot.
func mergeHists(hs []*obs.LatencyHist) *obs.LatencySnapshot {
	var out *obs.LatencySnapshot
	for _, h := range hs {
		out = out.Add(h.Snapshot())
	}
	return out
}
