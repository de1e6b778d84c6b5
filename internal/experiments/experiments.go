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

	"ffq/internal/affinity"
	"ffq/internal/allqueues"
	"ffq/internal/cachesim"
	"ffq/internal/core"
	"ffq/internal/enclave"
	"ffq/internal/harness"
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
