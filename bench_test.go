// Benchmarks regenerating every figure of the FFQ paper's evaluation
// (Figures 2-8) as testing.B benchmarks. Each benchmark reports the
// figure's headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// produces one row per (figure, configuration) data point. The cmd/
// tools produce the same series as full tables; these benchmarks are
// the `go test` native face of the same experiments.
package ffq_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/allqueues"
	"ffq/internal/core"
	"ffq/internal/enclave"
	"ffq/internal/htmqueue"
	"ffq/internal/perfmodel"
	"ffq/internal/spscqueues"
	"ffq/internal/syscalls"
	"ffq/internal/workload"
)

// BenchmarkFig2Layouts measures the false-sharing configurations of
// Figure 2: FFQ^m round-trip throughput under the four cell layouts.
func BenchmarkFig2Layouts(b *testing.B) {
	configs := []struct {
		name                 string
		producers, consumers int
	}{
		{"1p1c", 1, 1},
		{"1p8c", 1, 8},
		{"8p8c", 8, 8},
	}
	for _, cfg := range configs {
		for _, layout := range core.Layouts {
			b.Run(fmt.Sprintf("%s/%s", cfg.name, layout), func(b *testing.B) {
				items := b.N/cfg.producers + 1
				res, err := workload.RunMicro(workload.MicroConfig{
					Variant:              workload.VariantMPMC,
					Layout:               layout,
					Producers:            cfg.producers,
					ConsumersPerProducer: cfg.consumers,
					ItemsPerProducer:     items,
					QueueSize:            1 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MopsPerSec(), "Mops/s")
			})
		}
	}
}

// BenchmarkFig3QueueSize measures 1p/1c round-trip throughput as a
// function of the queue size (Figure 3).
func BenchmarkFig3QueueSize(b *testing.B) {
	for _, size := range []int{1 << 6, 1 << 10, 1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			res, err := workload.RunMicro(workload.MicroConfig{
				Variant:              workload.VariantSPMC,
				Layout:               core.LayoutPadded,
				Producers:            1,
				ConsumersPerProducer: 1,
				ItemsPerProducer:     b.N,
				QueueSize:            size,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MopsPerSec(), "Mops/s")
		})
	}
}

// BenchmarkFig4SimCounters runs the cache-hierarchy simulation behind
// Figure 4 and reports IPC and the L2 hit ratio per affinity policy.
func BenchmarkFig4SimCounters(b *testing.B) {
	for _, policy := range affinity.Policies {
		for _, size := range []int{1 << 10, 1 << 14, 1 << 18} {
			b.Run(fmt.Sprintf("%s/entries=%d", policy, size), func(b *testing.B) {
				cfg := perfmodel.DefaultConfig()
				cfg.Policy = policy
				cfg.QueueEntries = size
				cfg.Items = b.N
				res, err := perfmodel.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "sim-IPC")
				b.ReportMetric(res.L2HitRatio, "sim-L2hit")
			})
		}
	}
}

// BenchmarkFig5SimMemory runs the simulation behind Figure 5 and
// reports the L3 hit ratio and memory bandwidth per policy.
func BenchmarkFig5SimMemory(b *testing.B) {
	for _, policy := range affinity.Policies {
		for _, size := range []int{1 << 12, 1 << 18} {
			b.Run(fmt.Sprintf("%s/entries=%d", policy, size), func(b *testing.B) {
				cfg := perfmodel.DefaultConfig()
				cfg.Policy = policy
				cfg.QueueEntries = size
				cfg.Items = b.N
				res, err := perfmodel.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.L3HitRatio, "sim-L3hit")
				b.ReportMetric(res.MemBandwidthGBs, "sim-GB/s")
			})
		}
	}
}

// BenchmarkFig6Affinity measures real pinned-thread throughput per
// placement policy and queue size (Figure 6).
func BenchmarkFig6Affinity(b *testing.B) {
	for _, policy := range affinity.Policies {
		for _, size := range []int{1 << 6, 1 << 12, 1 << 18} {
			b.Run(fmt.Sprintf("%s/entries=%d", policy, size), func(b *testing.B) {
				res, err := workload.RunMicro(workload.MicroConfig{
					Variant:              workload.VariantSPMC,
					Layout:               core.LayoutPadded,
					Producers:            1,
					ConsumersPerProducer: 1,
					ItemsPerProducer:     b.N,
					QueueSize:            size,
					Policy:               policy,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MopsPerSec(), "Mops/s")
			})
		}
	}
}

// BenchmarkFig7Syscall measures simulated-enclave getppid throughput
// per framework variant (Figure 7, left panel).
func BenchmarkFig7Syscall(b *testing.B) {
	cores := runtime.NumCPU()
	if cores > 4 {
		cores = 4
	}
	for _, v := range enclave.Variants {
		b.Run(v.String(), func(b *testing.B) {
			calls := b.N/(cores*4) + 1
			res, err := enclave.RunThroughput(enclave.Config{
				Variant:         v,
				OSThreads:       cores,
				AppThreadsPerOS: 4,
				WorkersPerOS:    2,
				Call:            syscalls.GetPPID,
			}, calls)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.CallsPerSec()/1e6, "Mcalls/s")
		})
	}
}

// BenchmarkFig7Latency measures single-thread end-to-end syscall
// latency per variant (Figure 7, right panel).
func BenchmarkFig7Latency(b *testing.B) {
	for _, v := range enclave.Variants {
		b.Run(v.String(), func(b *testing.B) {
			sum, err := enclave.MeasureLatency(enclave.Config{
				Variant: v, OSThreads: 1, AppThreadsPerOS: 1, WorkersPerOS: 1,
				Call: syscalls.GetPPID,
			}, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(sum.Mean, "ns/call")
		})
	}
}

// BenchmarkFig8Compare runs the comparative pairs benchmark of
// Figure 8 for every queue in the registry over a small thread sweep.
func BenchmarkFig8Compare(b *testing.B) {
	threads := []int{1, 2, 4}
	for _, f := range allqueues.Factories() {
		for _, th := range threads {
			if f.MaxThreads != 0 && th > f.MaxThreads {
				continue
			}
			f, th := f, th
			b.Run(fmt.Sprintf("%s/t=%d", f.Name, th), func(b *testing.B) {
				res := workload.RunPairs(workload.PairsConfig{
					Factory:    f.Factory,
					Threads:    th,
					TotalPairs: b.N,
					Capacity:   1 << 16,
					DelayMinNS: 50,
					DelayMaxNS: 150,
				})
				b.ReportMetric(res.MopsPerSec(), "Mops/s")
			})
		}
	}
}

// BenchmarkCoreOps measures the raw single-threaded cost of one
// enqueue+dequeue pair on each FFQ variant through the public-facing
// core API (the "SPSC"/"SPMC" single-thread marks of Figure 8).
func BenchmarkCoreOps(b *testing.B) {
	b.Run("spsc", func(b *testing.B) {
		q, _ := core.NewSPSC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(uint64(i))
			q.TryDequeue()
		}
	})
	b.Run("spmc", func(b *testing.B) {
		q, _ := core.NewSPMC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(uint64(i))
			q.Dequeue()
		}
	})
	b.Run("mpmc", func(b *testing.B) {
		q, _ := core.NewMPMC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(uint64(i))
			q.Dequeue()
		}
	})
}

// BenchmarkCoreBatchOps prices the single-FAA batch claims on the
// bounded core variants against their single-op paths, plus the
// sharded queue's handle path. The bounded-spmc series is the
// acceptance gate for the batch API: one head.Add(k) claims k
// contiguous ranks, so per-element cost at batch=64 should be at
// least 2x better than batch=1.
func BenchmarkCoreBatchOps(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		batch := batch
		b.Run(fmt.Sprintf("bounded-spmc/batch=%d", batch), func(b *testing.B) {
			q, _ := core.NewSPMC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
			src := make([]uint64, batch)
			dst := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				q.EnqueueBatch(src)
				q.DequeueBatch(dst)
			}
		})
		b.Run(fmt.Sprintf("bounded-mpmc/batch=%d", batch), func(b *testing.B) {
			q, _ := core.NewMPMC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
			src := make([]uint64, batch)
			dst := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				q.EnqueueBatch(src)
				q.DequeueBatch(dst)
			}
		})
		b.Run(fmt.Sprintf("sharded/batch=%d", batch), func(b *testing.B) {
			q, _ := core.NewSharded[uint64](2, 1<<16, core.WithLayout(core.LayoutPadded))
			h, ok := q.Acquire()
			if !ok {
				b.Fatal("lane acquisition failed")
			}
			defer h.Release()
			src := make([]uint64, batch)
			dst := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				h.EnqueueBatch(src)
				q.DequeueBatch(dst)
			}
		})
	}
}

// BenchmarkLineSPSC is the acceptance gate for the line-granular SPSC
// (DESIGN.md §4.10): against the scalar SPSC on the same
// single-threaded enqueue+dequeue pairing, line/batch=64 must be at
// least 1.5x faster per element and line/single must stay within 1.15x
// of scalar/single (TestLineBeatsScalarSPSC is the CI gate; this is
// its benchmark face). The scalar baseline uses EnqueueBatch-free
// single ops at batch=1 and a TryDequeue drain loop at larger batches,
// which is the cheapest scalar formulation available.
func BenchmarkLineSPSC(b *testing.B) {
	b.Run("scalar/single", func(b *testing.B) {
		q, _ := core.NewSPSC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(uint64(i))
			q.TryDequeue()
		}
	})
	b.Run("line/single", func(b *testing.B) {
		q, _ := core.NewLineSPSC[uint64](1 << 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enqueue(uint64(i))
			q.TryDequeue()
		}
	})
	for _, batch := range []int{8, 64} {
		batch := batch
		b.Run(fmt.Sprintf("scalar/batch=%d", batch), func(b *testing.B) {
			q, _ := core.NewSPSC[uint64](1<<16, core.WithLayout(core.LayoutPadded))
			src := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				for _, v := range src {
					q.Enqueue(v)
				}
				for range src {
					q.TryDequeue()
				}
			}
		})
		b.Run(fmt.Sprintf("line/batch=%d", batch), func(b *testing.B) {
			q, _ := core.NewLineSPSC[uint64](1 << 16)
			src := make([]uint64, batch)
			dst := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				q.EnqueueBatch(src)
				q.TryDequeueBatch(dst)
			}
		})
	}
}

// BenchmarkShardedVsMPMC is the benchmark face of the fan-in
// comparison (and the TestShardedBeatsMPMC gate): 4 producers push
// into one shared queue drained by 4 consumers, once through a single
// FFQ^m and once through the sharded per-producer-lane queue. On >= 4
// real cores the sharded side should report at least 1.5x the Mops/s.
func BenchmarkShardedVsMPMC(b *testing.B) {
	for _, v := range []workload.Variant{workload.VariantMPMC, workload.VariantSharded} {
		v := v
		b.Run(fmt.Sprintf("%s/4p4c", v), func(b *testing.B) {
			res, err := workload.RunFanIn(workload.FanInConfig{
				Variant:          v,
				Producers:        4,
				Consumers:        4,
				ItemsPerProducer: b.N/4 + 1,
				QueueSize:        1 << 12,
				Layout:           core.LayoutPadded,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MopsPerSec(), "Mops/s")
		})
	}
}

// BenchmarkSPSCLineage measures the related-work SPSC queues of
// Section II against the FFQ SPSC variant (streaming transfer).
func BenchmarkSPSCLineage(b *testing.B) {
	for _, f := range spscqueues.Factories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			res, err := workload.RunStream(workload.StreamConfig{
				Factory:  f,
				Items:    b.N,
				Capacity: 1 << 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MopsPerSec(), "Mops/s")
		})
	}
}

// BenchmarkAblationMCRingBatch sweeps MCRingBuffer's control-update
// batch size (the knob its paper tunes; Section II background).
func BenchmarkAblationMCRingBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		batch := batch
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			f := spscqueues.Factory{
				Name:     fmt.Sprintf("mcring-%d", batch),
				Batching: true,
				New: func(c int) (spscqueues.Queue, error) {
					return spscqueues.NewMCRing(c, batch)
				},
			}
			res, err := workload.RunStream(workload.StreamConfig{
				Factory: f, Items: b.N, Capacity: 1 << 12,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MopsPerSec(), "Mops/s")
		})
	}
}

// BenchmarkAblationHTMRetries sweeps the HTM queue's optimistic retry
// budget: 0 degenerates to a global lock, large budgets burn work
// under contention — the trade-off behind the paper's observation that
// "transactional operations and retries are costly".
func BenchmarkAblationHTMRetries(b *testing.B) {
	for _, retries := range []int{0, 2, 8, 32} {
		retries := retries
		b.Run(fmt.Sprintf("retries=%d", retries), func(b *testing.B) {
			q, err := htmqueue.NewWithRetries(1<<12, retries)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q.Enqueue(1)
					for {
						if _, ok := q.Dequeue(); ok {
							break
						}
					}
				}
			})
			commits, aborts, fallbacks := q.Stats()
			if commits > 0 {
				b.ReportMetric(float64(aborts)/float64(commits), "aborts/commit")
				b.ReportMetric(float64(fallbacks)/float64(commits), "fallbacks/commit")
			}
		})
	}
}

// BenchmarkAblationPrefetchDepth sweeps the simulated streaming
// prefetcher (0 = off), showing its effect on the modeled L2 hit
// ratio behind Figure 4.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := perfmodel.DefaultConfig()
			cfg.Cache.PrefetchDepth = depth
			cfg.QueueEntries = 1 << 14
			cfg.Items = b.N
			res, err := perfmodel.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.L2HitRatio, "sim-L2hit")
			b.ReportMetric(res.ThroughputMops, "sim-Mops/s")
		})
	}
}

// BenchmarkInstrumentation is the cost gate for the observability
// layer. The "off" sub-benchmarks build the queue without a recorder —
// they must stay within noise (<3%) of the pre-instrumentation
// BenchmarkCoreOps numbers, since the disabled path adds only one
// predicted nil-check branch per operation. The "on" sub-benchmarks
// price the enabled path (a few uncontended atomic additions per
// enqueue/dequeue pair).
func BenchmarkInstrumentation(b *testing.B) {
	modes := []struct {
		name string
		opts []core.Option
	}{
		{"off", []core.Option{core.WithLayout(core.LayoutPadded)}},
		{"on", []core.Option{core.WithLayout(core.LayoutPadded), core.WithInstrumentation()}},
	}
	for _, m := range modes {
		b.Run("spsc/"+m.name, func(b *testing.B) {
			q, _ := core.NewSPSC[uint64](1<<16, m.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.TryDequeue()
			}
		})
		b.Run("spmc/"+m.name, func(b *testing.B) {
			q, _ := core.NewSPMC[uint64](1<<16, m.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.Dequeue()
			}
		})
		b.Run("mpmc/"+m.name, func(b *testing.B) {
			q, _ := core.NewMPMC[uint64](1<<16, m.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.Dequeue()
			}
		})
	}
}

// BenchmarkLatencyOverhead prices the tail-latency instrumentation
// tiers on the single-threaded enqueue+dequeue pair of
// BenchmarkCoreOps. The "off" tier repeats the uninstrumented baseline
// and must stay within noise of BenchmarkCoreOps (~32/37/52 ns for
// spsc/spmc/mpmc): with no recorder attached every instrumentation
// site is one nil check. "counters" adds the PR-1 op counters;
// "latency" additionally attaches the per-op latency histograms and
// the stall watchdog (two clock reads per op — the documented price of
// latency mode, paid only when it is switched on).
func BenchmarkLatencyOverhead(b *testing.B) {
	tiers := []struct {
		name string
		opts []core.Option
	}{
		{"off", nil},
		{"counters", []core.Option{core.WithInstrumentation()}},
		{"latency", []core.Option{core.WithOpLatency(), core.WithStallWatchdog(time.Millisecond)}},
	}
	for _, tier := range tiers {
		opts := append([]core.Option{core.WithLayout(core.LayoutPadded)}, tier.opts...)
		b.Run("spsc/"+tier.name, func(b *testing.B) {
			q, _ := core.NewSPSC[uint64](1<<16, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.TryDequeue()
			}
		})
		b.Run("spmc/"+tier.name, func(b *testing.B) {
			q, _ := core.NewSPMC[uint64](1<<16, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.Dequeue()
			}
		})
		b.Run("mpmc/"+tier.name, func(b *testing.B) {
			q, _ := core.NewMPMC[uint64](1<<16, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(uint64(i))
				q.Dequeue()
			}
		})
	}
}
