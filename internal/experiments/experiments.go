// Package experiments regenerates every figure of the paper's
// evaluation (Figures 2-8; the paper has no numbered tables). Each
// FigN function runs the corresponding experiment at a configurable
// scale and returns a report.Table whose rows are the figure's data
// series; Figures lists them all for `ffq-micro -fig`. EXPERIMENTS.md
// records one output of each function next to the paper's reported
// shape.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/allqueues"
	"ffq/internal/cachesim"
	"ffq/internal/core"
	"ffq/internal/enclave"
	"ffq/internal/harness"
	"ffq/internal/obs"
	"ffq/internal/perfmodel"
	"ffq/internal/report"
	"ffq/internal/spscqueues"
	"ffq/internal/stats"
	"ffq/internal/syscalls"
	"ffq/internal/workload"
)

// Options scales and parameterizes the experiment suite.
type Options struct {
	// Runs is the repetition count per data point (the paper uses 10).
	Runs int
	// Scale multiplies all item counts; 1.0 approximates the paper's
	// volumes, tests use ~0.01.
	Scale float64
	// MaxThreads caps sweep width (0 = 2x NumCPU).
	MaxThreads int
	// MinSizeExp/MaxSizeExp bound the queue-size sweeps (Figures 3-6)
	// as exponents of two.
	MinSizeExp, MaxSizeExp int
	// Topology for affinity placement (Detect() when nil).
	Topology *affinity.Topology
	// Cache selects the simulated hierarchy for Figures 4-5 (Skylake
	// when nil); see cachesim.ServerConfig.
	Cache *cachesim.Config
}

// DefaultOptions matches the paper's methodology at full scale.
func DefaultOptions() Options {
	return Options{
		Runs:       10,
		Scale:      1.0,
		MinSizeExp: 6,
		MaxSizeExp: 20,
	}
}

// QuickOptions is a CI-sized configuration (every experiment in
// seconds, shapes still visible).
func QuickOptions() Options {
	return Options{
		Runs:       2,
		Scale:      0.02,
		MinSizeExp: 6,
		MaxSizeExp: 14,
	}
}

func (o *Options) fill() {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = runtime.NumCPU()
	}
	if o.MinSizeExp == 0 {
		o.MinSizeExp = 6
	}
	if o.MaxSizeExp == 0 {
		o.MaxSizeExp = 20
	}
	if o.Topology == nil {
		o.Topology = affinity.Detect()
	}
}

// repeatMicro runs the microbenchmark runs times and summarizes its
// throughput in Mops/s.
func repeatMicro(runs int, cfg workload.MicroConfig) (stats.Summary, error) {
	return harness.RepeatErr(runs, func() (float64, error) {
		res, err := workload.RunMicro(cfg)
		if err != nil {
			return 0, err
		}
		return res.MopsPerSec(), nil
	})
}

// Fig2 reproduces the false-sharing study: FFQ^m throughput under the
// four cell layouts for 1p/1c, 1p/8c and 8p/8c-per-producer,
// normalized to the not-aligned layout (Figure 2).
func Fig2(o Options) (*report.Table, error) {
	o.fill()
	items := harness.ScaleInt(500_000, o.Scale, 2000)
	t := &report.Table{
		Title:   "Figure 2: impact of alignment and randomization (MPMC variant, normalized to not-aligned)",
		Note:    fmt.Sprintf("runs=%d items/producer=%d", o.Runs, items),
		Columns: []string{"config", "not-aligned", "aligned", "randomized", "both"},
	}
	cases := []struct {
		name                 string
		producers, consumers int
	}{
		{"1 prod / 1 cons", 1, 1},
		{"1 prod / 8 cons", 1, 8},
		{"8 prod / 8 cons each", 8, 8},
	}
	for _, c := range cases {
		var mops [4]float64
		for i, layout := range core.Layouts {
			sum, err := repeatMicro(o.Runs, workload.MicroConfig{
				Variant:              workload.VariantMPMC,
				Layout:               layout,
				Producers:            c.producers,
				ConsumersPerProducer: c.consumers,
				ItemsPerProducer:     items,
				QueueSize:            1 << 10,
				Policy:               affinity.NoAffinity,
				Topology:             o.Topology,
			})
			if err != nil {
				return nil, err
			}
			mops[i] = sum.Mean
		}
		base := mops[0]
		if base == 0 {
			base = 1
		}
		t.AddRow(c.name, 1.0, mops[1]/base, mops[2]/base, mops[3]/base)
	}
	return t, nil
}

// Fig3 reproduces the queue-size sweep: single-producer/single-consumer
// FFQ throughput as a function of queue size (Figure 3).
func Fig3(o Options) (*report.Table, error) {
	o.fill()
	items := harness.ScaleInt(2_000_000, o.Scale, 5000)
	t := &report.Table{
		Title:   "Figure 3: throughput vs queue size (SPMC queue, 1 producer / 1 consumer)",
		Note:    fmt.Sprintf("runs=%d items=%d layout=aligned", o.Runs, items),
		Columns: []string{"entries", "Mops/s", "sd"},
	}
	for _, size := range harness.PowersOfTwo(o.MinSizeExp, o.MaxSizeExp) {
		sum, err := repeatMicro(o.Runs, workload.MicroConfig{
			Variant:              workload.VariantSPMC,
			Layout:               core.LayoutPadded,
			Producers:            1,
			ConsumersPerProducer: 1,
			ItemsPerProducer:     items,
			QueueSize:            size,
			Policy:               affinity.NoAffinity,
			Topology:             o.Topology,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(size, sum.Mean, sum.Stddev)
	}
	return t, nil
}

// simSweep runs the perfmodel for every (size, policy) pair.
func simSweep(o Options, f func(t *report.Table, size int, policy affinity.Policy, r perfmodel.Result)) (*report.Table, error) {
	o.fill()
	items := harness.ScaleInt(400_000, o.Scale, 20_000)
	t := &report.Table{}
	for _, size := range harness.PowersOfTwo(o.MinSizeExp, o.MaxSizeExp) {
		for _, policy := range affinity.Policies {
			cfg := perfmodel.DefaultConfig()
			cfg.QueueEntries = size
			cfg.Items = items
			cfg.Policy = policy
			if o.Cache != nil {
				cfg.Cache = *o.Cache
				if cfg.Cache.LineSize > cfg.CellBytes {
					cfg.CellBytes = cfg.Cache.LineSize // one aligned cell per line
				}
			}
			res, err := perfmodel.Run(cfg)
			if err != nil {
				return nil, err
			}
			f(t, size, policy, res)
		}
	}
	return t, nil
}

// Fig4 reproduces the IPC and L2-hit-ratio panels of Figure 4 from the
// cache simulation (substitution #3: simulated counters, not PCM).
func Fig4(o Options) (*report.Table, error) {
	t, err := simSweep(o, func(t *report.Table, size int, policy affinity.Policy, r perfmodel.Result) {
		t.AddRow(size, policy.String(), r.IPC, r.L2HitRatio, r.ThroughputMops)
	})
	if err != nil {
		return nil, err
	}
	t.Title = "Figure 4 (simulated): IPC and L2 hit ratio vs queue size per affinity policy"
	t.Note = "counters from the cachesim hierarchy, not hardware PCM (DESIGN.md substitution #3)"
	t.Columns = []string{"entries", "policy", "IPC", "L2-hit", "Mops/s"}
	return t, nil
}

// Fig5 reproduces the L3-hit-ratio / L3-miss / memory-bandwidth panels
// of Figure 5 from the cache simulation.
func Fig5(o Options) (*report.Table, error) {
	t, err := simSweep(o, func(t *report.Table, size int, policy affinity.Policy, r perfmodel.Result) {
		t.AddRow(size, policy.String(), r.L3HitRatio, int(r.L3Misses), r.MemBandwidthGBs)
	})
	if err != nil {
		return nil, err
	}
	t.Title = "Figure 5 (simulated): L3 hit ratio, L3 misses, memory bandwidth vs queue size"
	t.Note = "counters from the cachesim hierarchy, not hardware PCM (DESIGN.md substitution #3)"
	t.Columns = []string{"entries", "policy", "L3-hit", "L3-misses", "mem-GB/s"}
	return t, nil
}

// Fig6 reproduces the throughput-vs-queue-size-and-affinity study on
// the real queues with real thread pinning (Figure 6).
func Fig6(o Options, pairs int) (*report.Table, error) {
	o.fill()
	if pairs < 1 {
		pairs = 1
	}
	items := harness.ScaleInt(1_000_000, o.Scale, 5000)
	t := &report.Table{
		Title: fmt.Sprintf("Figure 6: throughput vs queue size and affinity (%d producer/consumer pair(s))", pairs),
		Note: fmt.Sprintf("runs=%d items/producer=%d pinning-supported=%v",
			o.Runs, items, affinity.Supported()),
		Columns: []string{"entries", "sibling-HT", "same-HT", "other-core", "no-affinity"},
	}
	for _, size := range harness.PowersOfTwo(o.MinSizeExp, o.MaxSizeExp) {
		row := []any{size}
		for _, policy := range affinity.Policies {
			sum, err := repeatMicro(o.Runs, workload.MicroConfig{
				Variant:              workload.VariantSPMC,
				Layout:               core.LayoutPadded,
				Producers:            pairs,
				ConsumersPerProducer: 1,
				ItemsPerProducer:     items,
				QueueSize:            size,
				Policy:               policy,
				Topology:             o.Topology,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, sum.Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7Throughput reproduces the left panel of Figure 7: getppid
// throughput of the three framework variants as available cores grow.
func Fig7Throughput(o Options) (*report.Table, error) {
	o.fill()
	calls := harness.ScaleInt(200_000, o.Scale, 1000)
	t := &report.Table{
		Title:   "Figure 7 (left): syscall throughput vs cores (simulated enclave, getppid)",
		Note:    fmt.Sprintf("runs=%d calls/app-thread=%d app-threads/OS-thread=4 workers/OS-thread=2", o.Runs, calls),
		Columns: []string{"cores", "native", "ffq", "mpmc"},
	}
	maxCores := o.MaxThreads
	if maxCores < 1 {
		maxCores = 1
	}
	for cores := 1; cores <= maxCores; cores++ {
		row := []any{cores}
		for _, v := range enclave.Variants {
			v := v
			sum, err := harness.RepeatErr(o.Runs, func() (float64, error) {
				res, err := enclave.RunThroughput(enclave.Config{
					Variant:         v,
					OSThreads:       cores,
					AppThreadsPerOS: 4,
					WorkersPerOS:    2,
					Call:            syscalls.GetPPID,
				}, calls)
				if err != nil {
					return 0, err
				}
				return res.CallsPerSec() / 1e6, nil
			})
			if err != nil {
				return nil, err
			}
			row = append(row, sum.Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7Latency reproduces the right panel of Figure 7: single-thread
// end-to-end getppid latency per variant.
func Fig7Latency(o Options) (*report.Table, error) {
	o.fill()
	samples := harness.ScaleInt(100_000, o.Scale, 500)
	t := &report.Table{
		Title:   "Figure 7 (right): getppid latency by variant (single application thread)",
		Note:    fmt.Sprintf("samples=%d; ns end-to-end", samples),
		Columns: []string{"variant", "mean-ns", "min-ns", "max-ns"},
	}
	for _, v := range enclave.Variants {
		sum, err := enclave.MeasureLatency(enclave.Config{
			Variant:         v,
			OSThreads:       1,
			AppThreadsPerOS: 1,
			WorkersPerOS:    1,
			Call:            syscalls.GetPPID,
		}, samples)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.String(), sum.Mean, sum.Min, sum.Max)
	}
	return t, nil
}

// Fig8 reproduces the comparative study: throughput of every queue in
// the registry under the pairs workload across a thread sweep
// (Figure 8; one panel, this host).
func Fig8(o Options) (*report.Table, error) {
	o.fill()
	totalPairs := harness.ScaleInt(10_000_000, o.Scale, 2000)
	t := &report.Table{
		Title: "Figure 8: comparative throughput, pairs benchmark (this host)",
		Note: fmt.Sprintf("runs=%d total-pairs=%d delay=50-150ns capacity=2^16; spsc/spmc are single-thread marks",
			o.Runs, totalPairs),
	}
	threads := harness.ThreadSweep(o.MaxThreads)
	t.Columns = []string{"queue"}
	for _, th := range threads {
		t.Columns = append(t.Columns, fmt.Sprintf("t=%d", th))
	}
	for _, f := range allqueues.Factories() {
		row := []any{f.Name}
		for _, th := range threads {
			if f.MaxThreads != 0 && th > f.MaxThreads {
				row = append(row, "-")
				continue
			}
			th := th
			fac := f.Factory
			sum := harness.Repeat(o.Runs, func() float64 {
				return workload.RunPairs(workload.PairsConfig{
					Factory:    fac,
					Threads:    th,
					TotalPairs: totalPairs,
					Capacity:   1 << 16,
					DelayMinNS: 50,
					DelayMaxNS: 150,
				}).MopsPerSec()
			})
			row = append(row, sum.Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure is one table of the evaluation: the name `ffq-micro -fig`
// selects it by, and the experiment that regenerates it.
type Figure struct {
	Name string
	Run  func() (*report.Table, error)
}

// Figures lists every table of the evaluation in paper order, each
// bound to o: Figures 2-8 (7 and 8 each gain a latency panel; 8's runs
// the pairs workload at o.MaxThreads threads) and the Section II SPSC
// lineage. pairs6 sets the pair count for Figure 6.
func Figures(o Options, pairs6 int) []Figure {
	o.fill()
	return []Figure{
		{"2", func() (*report.Table, error) { return Fig2(o) }},
		{"3", func() (*report.Table, error) { return Fig3(o) }},
		{"4", func() (*report.Table, error) { return Fig4(o) }},
		{"5", func() (*report.Table, error) { return Fig5(o) }},
		{"6", func() (*report.Table, error) { return Fig6(o, pairs6) }},
		{"7", func() (*report.Table, error) { return Fig7Throughput(o) }},
		{"7-latency", func() (*report.Table, error) { return Fig7Latency(o) }},
		{"8", func() (*report.Table, error) { return Fig8(o) }},
		{"8-latency", func() (*report.Table, error) { return PairsLatency(o, o.MaxThreads) }},
		{"spsc-lineage", func() (*report.Table, error) { return SPSCLineage(o) }},
	}
}

// SPSCLineage benchmarks the related-work SPSC queues of Section II
// (Lamport, FastForward, MCRingBuffer, BatchQueue, B-Queue) against
// the FFQ SPSC variant on a streaming transfer workload. Not a paper
// figure; it substantiates the Section II comparisons.
func SPSCLineage(o Options) (*report.Table, error) {
	o.fill()
	items := harness.ScaleInt(2_000_000, o.Scale, 5000)
	sizes := harness.PowersOfTwo(o.MinSizeExp, min(o.MaxSizeExp, 16))
	t := &report.Table{
		Title: "SPSC lineage (Section II): streaming transfer throughput, Mops/s",
		Note:  fmt.Sprintf("runs=%d items=%d", o.Runs, items),
	}
	t.Columns = []string{"queue"}
	for _, size := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("cap=%d", size))
	}
	for _, f := range spscqueues.Factories() {
		row := []any{f.Name}
		for _, size := range sizes {
			f, size := f, size
			sum, err := harness.RepeatErr(o.Runs, func() (float64, error) {
				res, err := workload.RunStream(workload.StreamConfig{
					Factory:  f,
					Items:    items,
					Capacity: size,
				})
				if err != nil {
					return 0, err
				}
				return res.MopsPerSec(), nil
			})
			if err != nil {
				return nil, err
			}
			row = append(row, sum.Mean)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PairsLatency measures per-operation latency percentiles for every
// queue in the registry under the pairs workload at a fixed thread
// count. Not a paper figure; it complements Figure 8's throughput
// ranking with the tail behaviour an adopter cares about.
func PairsLatency(o Options, threads int) (*report.Table, error) {
	o.fill()
	if threads < 1 {
		threads = 1
	}
	totalPairs := harness.ScaleInt(1_000_000, o.Scale, 2000)
	t := &report.Table{
		Title: fmt.Sprintf("Pairs latency (extra): per-op latency at %d threads, ns", threads),
		Note: fmt.Sprintf("total-pairs=%d delay=50-150ns; p99 is an HDR bucket upper edge (6.25%% relative error)",
			totalPairs),
		Columns: []string{"queue", "enq-mean", "enq-p99", "deq-mean", "deq-p99"},
	}
	for _, f := range allqueues.Factories() {
		if f.MaxThreads != 0 && threads > f.MaxThreads {
			continue
		}
		res := workload.RunPairs(workload.PairsConfig{
			Factory:        f.Factory,
			Threads:        threads,
			TotalPairs:     totalPairs,
			Capacity:       1 << 16,
			DelayMinNS:     50,
			DelayMaxNS:     150,
			MeasureLatency: true,
		})
		t.AddRow(f.Name,
			res.EnqueueNS.Mean().Nanoseconds(), res.EnqueueNS.P99NS,
			res.DequeueNS.Mean().Nanoseconds(), res.DequeueNS.P99NS)
	}
	return t, nil
}

// StatsSweep runs the instrumented microbenchmark across the queue-size
// sweep and returns JSON records that pair each configuration's
// throughput with the spin, yield, gap and wait counters of its
// submission queues. This is the exporter behind `ffq-micro -json`:
// stored BENCH_*.json files carry the queue-internals trajectory of a
// run, not just its headline Mops/s. batch > 1 moves items in batches
// of that size (native batch operations on VariantSharded, whose
// per-run batch-size histogram then lands in the record's queue
// stats). producers > 1 is the multi-producer axis: each
// producer gets its own submission queue — except VariantSharded,
// where all of them share one sharded queue (a lane each) and the
// record additionally carries the lane count and per-lane depth.
// latency switches the runs into latency mode: items are stamped at
// submission, and every record gains sojourn_* percentile metrics (the
// ingress-to-dequeue distribution) plus enq_/deq_ per-op percentiles
// from the recorder histograms — the fields the CI latency smoke gate
// and EXPERIMENTS.md's methodology section read.
func StatsSweep(o Options, variant workload.Variant, producers, consumers, batch int, latency bool) ([]report.Record, error) {
	o.fill()
	if producers < 1 {
		producers = 1
	}
	if consumers < 1 {
		consumers = 1
	}
	if batch < 1 {
		batch = 1
	}
	items := harness.ScaleInt(500_000, o.Scale, 2000) / producers
	if items < 1000 {
		items = 1000
	}
	var recs []report.Record
	for _, size := range harness.PowersOfTwo(o.MinSizeExp, o.MaxSizeExp) {
		var agg obs.Stats
		var sojourn *obs.LatencySnapshot
		lanes, laneCap := 0, 0
		sum, err := harness.RepeatErr(o.Runs, func() (float64, error) {
			res, err := workload.RunMicro(workload.MicroConfig{
				Variant:              variant,
				Layout:               core.LayoutPadded,
				Producers:            producers,
				ConsumersPerProducer: consumers,
				ItemsPerProducer:     items,
				QueueSize:            size,
				Batch:                batch,
				Policy:               affinity.NoAffinity,
				Topology:             o.Topology,
				Instrument:           true,
				MeasureLatency:       latency,
			})
			if err != nil {
				return 0, err
			}
			if res.Stats != nil {
				agg = agg.Add(*res.Stats)
			}
			sojourn = sojourn.Add(res.Sojourn)
			lanes, laneCap = res.Lanes, res.LaneCap
			return res.MopsPerSec(), nil
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("micro/%s/entries=%d", variant, size)
		if producers > 1 {
			name += fmt.Sprintf("/p=%d", producers)
		}
		if batch > 1 {
			name += fmt.Sprintf("/batch=%d", batch)
		}
		params := map[string]any{
			"variant":            variant.String(),
			"producers":          producers,
			"consumers":          consumers,
			"queue_size":         size,
			"batch":              batch,
			"runs":               o.Runs,
			"items_per_producer": items,
		}
		if lanes > 0 {
			params["lanes"] = lanes
			params["lane_depth"] = laneCap
		}
		metrics := map[string]float64{
			"mops_per_sec_mean":   sum.Mean,
			"mops_per_sec_stddev": sum.Stddev,
			"mops_per_sec_min":    sum.Min,
			"mops_per_sec_max":    sum.Max,
		}
		if latency {
			params["measure_latency"] = true
			addLatencyMetrics(metrics, "sojourn_", sojourn)
			addLatencyMetrics(metrics, "enq_", agg.EnqLatency)
			addLatencyMetrics(metrics, "deq_", agg.DeqLatency)
		}
		recs = append(recs, report.Record{
			Name:      name,
			Timestamp: time.Now(),
			Params:    params,
			Metrics:   metrics,
			Queues: []report.QueueStats{{
				Name:     "submission",
				Capacity: size,
				Stats:    agg,
			}},
		})
	}
	return recs, nil
}

// addLatencyMetrics flattens a latency snapshot into prefixed metric
// fields (count, mean and the percentile cut). A nil or empty snapshot
// contributes nothing, so records stay free of zero-valued noise.
func addLatencyMetrics(m map[string]float64, prefix string, s *obs.LatencySnapshot) {
	if s == nil || s.Count == 0 {
		return
	}
	m[prefix+"count"] = float64(s.Count)
	m[prefix+"mean_ns"] = float64(s.SumNS) / float64(s.Count)
	m[prefix+"p50_ns"] = float64(s.P50NS)
	m[prefix+"p95_ns"] = float64(s.P95NS)
	m[prefix+"p99_ns"] = float64(s.P99NS)
	m[prefix+"p999_ns"] = float64(s.P999NS)
	m[prefix+"max_ns"] = float64(s.MaxNS)
}

// ShardedVsMPMC measures the fan-in comparison the sharded queue
// exists for: P producers pushing into ONE shared queue drained by C
// consumers, once with a single FFQ^m (every producer contending on
// one tail word and CASing cell states) and once with the sharded
// per-producer-lane queue (wait-free FFQ^s enqueues, consumers
// FAA-claiming per lane). Both runs move the same item volume through
// the same thread counts under the padded layout; the sharded record
// carries the speedup ratio. This is the exporter behind
// `ffq-micro -sharded-compare -json` and the data behind the
// BenchmarkShardedVsMPMC CI gate.
func ShardedVsMPMC(o Options, producers, consumers int) ([]report.Record, error) {
	o.fill()
	if producers < 1 {
		producers = 1
	}
	if consumers < 1 {
		consumers = 1
	}
	items := harness.ScaleInt(500_000, o.Scale, 2000) / producers
	if items < 1000 {
		items = 1000
	}
	const size = 1 << 12 // MPMC capacity; per-lane capacity for sharded
	variants := []workload.Variant{workload.VariantMPMC, workload.VariantSharded}
	recs := make([]report.Record, 0, len(variants))
	means := make(map[workload.Variant]float64, len(variants))
	for _, v := range variants {
		v := v
		var agg obs.Stats
		var gaps int64
		sum, err := harness.RepeatErr(o.Runs, func() (float64, error) {
			res, err := workload.RunFanIn(workload.FanInConfig{
				Variant:          v,
				Producers:        producers,
				Consumers:        consumers,
				ItemsPerProducer: items,
				QueueSize:        size,
				Layout:           core.LayoutPadded,
				Instrument:       true,
			})
			if err != nil {
				return 0, err
			}
			if res.Stats != nil {
				agg = agg.Add(*res.Stats)
			}
			gaps += res.Gaps
			return res.MopsPerSec(), nil
		})
		if err != nil {
			return nil, err
		}
		means[v] = sum.Mean
		params := map[string]any{
			"variant":            v.String(),
			"producers":          producers,
			"consumers":          consumers,
			"queue_size":         size,
			"runs":               o.Runs,
			"items_per_producer": items,
		}
		if v == workload.VariantSharded {
			params["lanes"] = producers + 1
			params["lane_depth"] = size
		}
		metrics := map[string]float64{
			"mops_per_sec_mean":   sum.Mean,
			"mops_per_sec_stddev": sum.Stddev,
			"mops_per_sec_min":    sum.Min,
			"mops_per_sec_max":    sum.Max,
			"gaps_total":          float64(gaps),
		}
		if v == workload.VariantSharded && means[workload.VariantMPMC] > 0 {
			metrics["speedup_vs_mpmc"] = sum.Mean / means[workload.VariantMPMC]
		}
		recs = append(recs, report.Record{
			Name:      fmt.Sprintf("fanin/%s/p=%d/c=%d", v, producers, consumers),
			Timestamp: time.Now(),
			Params:    params,
			Metrics:   metrics,
			Queues: []report.QueueStats{{
				Name:     "shared",
				Capacity: size,
				Stats:    agg,
			}},
		})
	}
	return recs, nil
}

// BrokerSweep measures the ffqd broker's end-to-end loopback
// throughput across client auto-batch sizes: each point publishes the
// same message volume through one topic with the client's MaxBatch set
// to the given batch size, so the sweep isolates what frame batching
// buys on the wire path (one frame = one arena copy, one ingress slot
// and one contiguous EnqueueBatch rank reservation, whatever the batch
// size). This is the exporter behind `ffq-micro -broker -json`.
func BrokerSweep(o Options, transport string, producers, consumers int, batches []int) ([]report.Record, error) {
	o.fill()
	if producers < 1 {
		producers = 1
	}
	if consumers < 1 {
		consumers = 1
	}
	if len(batches) == 0 {
		batches = []int{1, 8, 64}
	}
	msgs := harness.ScaleInt(200_000, o.Scale, 2000)
	var recs []report.Record
	for _, batch := range batches {
		sum, err := harness.RepeatErr(o.Runs, func() (float64, error) {
			res, err := workload.RunBroker(workload.BrokerConfig{
				Transport:           transport,
				Producers:           producers,
				Consumers:           consumers,
				MessagesPerProducer: msgs / producers,
				MaxBatch:            batch,
			})
			if err != nil {
				return 0, err
			}
			return res.MsgsPerSec(), nil
		})
		if err != nil {
			return nil, err
		}
		recs = append(recs, report.Record{
			Name:      fmt.Sprintf("broker/%s/batch=%d", transport, batch),
			Timestamp: time.Now(),
			Params: map[string]any{
				"transport":             transport,
				"producers":             producers,
				"consumers":             consumers,
				"batch":                 batch,
				"runs":                  o.Runs,
				"messages_per_producer": msgs / producers,
			},
			Metrics: map[string]float64{
				"msgs_per_sec_mean":   sum.Mean,
				"msgs_per_sec_stddev": sum.Stddev,
				"msgs_per_sec_min":    sum.Min,
				"msgs_per_sec_max":    sum.Max,
			},
		})
	}
	return recs, nil
}
