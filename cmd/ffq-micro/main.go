// Command ffq-micro regenerates the figures of the FFQ paper on the
// host machine, one table per -fig name:
//
//	-fig 2             false-sharing layouts (Figure 2)
//	-fig 3             throughput vs queue size (Figure 3)
//	-fig 4, -fig 5     simulated cache counters vs queue size x affinity
//	                   (Figures 4 and 5; -server picks the hierarchy)
//	-fig 6             throughput vs queue size x thread affinity (Figure 6)
//	-fig 7             enclave syscall throughput vs cores (Figure 7 left)
//	-fig 7-latency     enclave syscall latency per variant (Figure 7 right)
//	-fig 8             every queue under the pairs workload (Figure 8)
//	-fig 8-latency     per-op latency of the same, at -max-threads threads
//	-fig spsc-lineage  the Section II SPSC queues on a streaming transfer
//	-fig all           every table above, after a host header
//
// Usage:
//
//	ffq-micro -fig 3 -runs 10 -scale 1.0
//	ffq-micro -fig 6 -pairs 2 -csv
//	ffq-micro -fig 4 -server p8
//	ffq-micro -fig all -runs 3 -scale 0.05 > experiments_run.txt
//	ffq-micro -json BENCH_spmc.json -variant spmc -consumers 4
//	ffq-micro -json BENCH_sharded.json -variant sharded -producers 4 -consumers 1
//	ffq-micro -json - -sharded-compare -producers 4 -consumers 4
//	ffq-micro -json - -broker -transport pipe -consumers 4
//	ffq-micro -json BENCH_shm.json -variant shm -slot-size 64
//	ffq-micro -latency -variant spmc -consumers 1
//	ffq-micro -latency -json BENCH_lat.json -stall-every 100000
//
// With -json the tool instead runs the instrumented queue-size sweep
// and writes benchmark records (throughput plus per-queue spin, yield,
// gap and wait counters) as a JSON array to the given file ("-" for
// stdout). -batch moves items in batches (the paper-relevant sizes
// are 1, 8 and 64). -producers adds the multi-producer axis; with
// -variant sharded all producers share one sharded queue (a wait-free
// lane each) and each record carries the lane count and per-lane
// depth.
//
// With -sharded-compare (requires -json) the run instead measures the
// sharded-vs-FFQ^m fan-in comparison at -producers x -consumers and
// records both throughputs plus the speedup ratio.
//
// With -variant shm (requires -json) the sweep instead measures the
// shared-memory SPSC transport (internal/shm): this binary re-execs
// itself as a separate producer process that streams fixed-size
// payloads through an mmap segment, and the consumer side reports
// per-element nanoseconds and payloads/s across batch sizes 1, 8, 64.
//
// With -broker (requires -json) the sweep instead measures the ffqd
// broker's end-to-end loopback throughput across client auto-batch
// sizes 1, 8 and 64 — the wire-path answer to the queue batching
// sweep. -transport selects in-process net.Pipe or real loopback TCP.
//
// With -latency the run switches into latency mode: items are stamped
// at submission, and the report carries the sojourn
// (submission-to-dequeue) and per-op enqueue/dequeue latency
// percentiles instead of just Mops/s. Combined with -json the whole
// queue-size sweep gains sojourn_*/enq_*/deq_* percentile metrics;
// without -json a single configuration prints as a percentile table
// plus the stall-watchdog tail. -stall-every N injects an artificial
// consumer stall of -stall-dur every N items — the disturbance the
// tail gates exist to catch.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/cachesim"
	"ffq/internal/experiments"
	"ffq/internal/obs"
	"ffq/internal/report"
	"ffq/internal/workload"
)

func main() {
	fig := flag.String("fig", "3", "figure to regenerate: 2, 3, 4, 5, 6, 7, 7-latency, 8, 8-latency, spsc-lineage, or all")
	runs := flag.Int("runs", 10, "repetitions per data point (paper: 10)")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-sized)")
	minExp := flag.Int("min-size", 6, "smallest queue size as a power-of-two exponent")
	maxExp := flag.Int("max-size", 20, "largest queue size as a power-of-two exponent")
	pairs := flag.Int("pairs", 1, "producer/consumer pairs (figure 6)")
	maxThreads := flag.Int("max-threads", 0, "largest core count for figure 7, thread sweep cap for figure 8, threads for 8-latency (0 = NumCPU)")
	server := flag.String("server", "skylake", "simulated hierarchy for figures 4 and 5: skylake, haswell or p8 (the paper's three servers)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := flag.String("json", "", "write the instrumented stats sweep as JSON to this file (\"-\" = stdout)")
	variant := flag.String("variant", "spmc", "queue variant for -json: spsc, spmc, mpmc, sharded, or shm (two-process mmap transport sweep)")
	consumers := flag.Int("consumers", 1, "consumers per producer for -json")
	batch := flag.Int("batch", 1, "items per batch for -json (the sharded variant uses native batch ops)")
	brokerSweep := flag.Bool("broker", false, "with -json: sweep ffqd broker loopback throughput across client batch sizes instead of a queue sweep")
	transport := flag.String("transport", "pipe", "broker transport for -broker: pipe (in-process) or tcp (loopback sockets)")
	producers := flag.Int("producers", 1, "producers: broker connections for -broker, queue producers for -json sweeps (sharded = lanes in one queue)")
	shardedCompare := flag.Bool("sharded-compare", false, "with -json: run the sharded-vs-mpmc fan-in comparison at -producers x -consumers instead of a queue sweep")
	latency := flag.Bool("latency", false, "latency mode: record sojourn and per-op latency percentiles (table, or sojourn_*/enq_*/deq_* metrics with -json)")
	stallEvery := flag.Int("stall-every", 0, "with -latency: inject an artificial consumer stall every N items (0 = none)")
	stallDur := flag.Duration("stall-dur", workload.DefaultStallDuration, "with -latency: injected stall length")
	slotSize := flag.Int("slot-size", 64, "with -variant shm: payload size in bytes")
	shmCap := flag.Int("shm-capacity", 1<<12, "with -variant shm: ring capacity in payloads")
	// Hidden child-process flags: -variant shm re-execs this binary as
	// the producer of the two-process run.
	shmChild := flag.String("shm-child", "", "(internal) produce into this segment path and exit")
	shmItems := flag.Int("shm-items", 0, "(internal) payloads for -shm-child")
	flag.Parse()

	if *shmChild != "" {
		if err := workload.ShmProduce(*shmChild, *slotSize, *shmCap, *shmItems, *batch); err != nil {
			fmt.Fprintln(os.Stderr, "ffq-micro (shm child):", err)
			os.Exit(1)
		}
		return
	}

	o := experiments.DefaultOptions()
	o.Runs = *runs
	o.Scale = *scale
	o.MinSizeExp = *minExp
	o.MaxSizeExp = *maxExp
	o.MaxThreads = *maxThreads

	var err error
	switch {
	case *jsonOut != "":
		var recs []report.Record
		switch {
		case *brokerSweep:
			recs, err = experiments.BrokerSweep(o, *transport, *producers, *consumers, nil)
		case *shardedCompare:
			recs, err = experiments.ShardedVsMPMC(o, *producers, *consumers)
		case *variant == "shm":
			recs, err = runShmSweep(o, *slotSize, *shmCap)
		default:
			var v workload.Variant
			if v, err = parseVariant(*variant); err == nil {
				recs, err = experiments.StatsSweep(o, v, *producers, *consumers, *batch, *latency)
			}
		}
		if err == nil {
			err = writeRecords(*jsonOut, recs)
		}
	case *latency:
		err = runLatency(o, *variant, *producers, *consumers, *batch, *stallEvery, *stallDur, *csv)
	default:
		err = runFigures(o, *fig, *server, *pairs, *csv)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffq-micro:", err)
		os.Exit(1)
	}
}

// runFigures prints the tables -fig name selects; "all" prints every
// figure after a header describing the host.
func runFigures(o experiments.Options, name, server string, pairs int, csv bool) error {
	cache, err := cachesim.ServerConfig(server)
	if err != nil {
		return err
	}
	o.Cache = &cache
	figs, err := pickFigures(experiments.Figures(o, pairs), name)
	if err != nil {
		return err
	}
	start := time.Now()
	if name == "all" {
		top := affinity.Detect()
		fmt.Printf("# FFQ reproduction run\n")
		fmt.Printf("date: %s\n", start.Format(time.RFC3339))
		fmt.Printf("go: %s  GOOS/GOARCH: %s/%s  NumCPU: %d  cores: %d  pinning: %v\n",
			runtime.Version(), runtime.GOOS, runtime.GOARCH,
			runtime.NumCPU(), top.NumCores(), affinity.Supported())
		fmt.Printf("runs=%d scale=%g\n\n", o.Runs, o.Scale)
	}
	for _, f := range figs {
		tbl, err := f.Run()
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.Name, err)
		}
		if err := printTable(tbl, csv); err != nil {
			return err
		}
	}
	if name == "all" {
		fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Second))
	}
	return nil
}

// pickFigures returns the figures -fig name selects: all of them for
// "all", otherwise the one entry of that name.
func pickFigures(figs []experiments.Figure, name string) ([]experiments.Figure, error) {
	if name == "all" {
		return figs, nil
	}
	names := make([]string, 0, len(figs)+1)
	for _, f := range figs {
		if f.Name == name {
			return []experiments.Figure{f}, nil
		}
		names = append(names, f.Name)
	}
	names = append(names, "all")
	return nil, fmt.Errorf("unknown figure %q (have %s)", name, strings.Join(names, ", "))
}

// printTable writes tbl to stdout as an aligned table or as CSV.
func printTable(tbl *report.Table, csv bool) error {
	if csv {
		return tbl.CSV(os.Stdout)
	}
	return tbl.Fprint(os.Stdout)
}

// parseVariant maps the -variant flag onto the workload enum.
func parseVariant(variant string) (workload.Variant, error) {
	switch variant {
	case "spsc":
		return workload.VariantSPSC, nil
	case "spmc":
		return workload.VariantSPMC, nil
	case "mpmc":
		return workload.VariantMPMC, nil
	case "sharded":
		return workload.VariantSharded, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (have spsc, spmc, mpmc, sharded)", variant)
	}
}

// runLatency executes one latency-mode run and prints the percentile
// table: the sojourn distribution (submission to dequeue) plus the
// per-op enqueue/dequeue latency, and the stall-watchdog tail when any
// waits crossed the threshold.
func runLatency(o experiments.Options, variant string, producers, consumers, batch, stallEvery int, stallDur time.Duration, csv bool) error {
	v, err := parseVariant(variant)
	if err != nil {
		return err
	}
	items := int(500_000 * o.Scale)
	if items < 2000 {
		items = 2000
	}
	res, err := workload.RunMicro(workload.MicroConfig{
		Variant:              v,
		Producers:            producers,
		ConsumersPerProducer: consumers,
		ItemsPerProducer:     items,
		QueueSize:            1 << 10,
		Batch:                batch,
		MeasureLatency:       true,
		StallThreshold:       obs.DefaultStallThreshold,
		StallEvery:           stallEvery,
		StallDuration:        stallDur,
	})
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("ffq-micro latency: %s, %dp x %dc, %d items/producer", v, producers, consumers, items),
		Note: fmt.Sprintf("%.2f Mops/s; quantiles are conservative bucket upper edges (<=%.2f%% relative error)",
			res.MopsPerSec(), 100/float64(int64(1)<<obs.LatSubBits)),
		Columns: []string{"path", "count", "mean", "p50", "p95", "p99", "p999", "max"},
	}
	addLat := func(name string, s *obs.LatencySnapshot) {
		if s == nil || s.Count == 0 {
			return
		}
		tbl.AddRow(name, s.Count, s.Mean().String(),
			time.Duration(s.P50NS).String(), time.Duration(s.P95NS).String(),
			time.Duration(s.P99NS).String(), time.Duration(s.P999NS).String(),
			s.Max().String())
	}
	addLat("sojourn", res.Sojourn)
	if res.Stats != nil {
		addLat("enqueue-op", res.Stats.EnqLatency)
		addLat("dequeue-op", res.Stats.DeqLatency)
	}
	if err := printTable(tbl, csv); err != nil {
		return err
	}
	if s := res.Stats; s != nil && s.StallEvents > 0 {
		fmt.Printf("\nstalls: %d events past %v (completed: %d, mean %v)\n",
			s.StallEvents, time.Duration(s.StallThresholdNS), s.StallCount, s.MeanStall())
		for _, ev := range s.RecentStalls {
			fmt.Printf("  %s  %-8s rank=%-8d %v\n",
				time.Unix(0, ev.UnixNano).Format("15:04:05.000"), ev.Role, ev.Rank, time.Duration(ev.DurationNS))
		}
	}
	return nil
}

// runShmSweep executes the shared-memory transport sweep with the
// producer in a separate process — this binary re-exec'd with the
// hidden -shm-child flags.
func runShmSweep(o experiments.Options, slotSize, capacity int) ([]report.Record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spawn := func(batch int) func(segPath string) (func() error, error) {
		return func(segPath string) (func() error, error) {
			n := experiments.ShmSweepItems(o)
			cmd := exec.Command(exe,
				"-shm-child", segPath,
				"-shm-items", strconv.Itoa(n),
				"-slot-size", strconv.Itoa(slotSize),
				"-shm-capacity", strconv.Itoa(capacity),
				"-batch", strconv.Itoa(batch))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd.Wait, nil
		}
	}
	return experiments.ShmSweep(o, slotSize, capacity, nil, spawn)
}

// writeRecords writes a JSON record array to path ("-" = stdout).
func writeRecords(path string, recs []report.Record) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report.WriteJSON(w, recs)
}
