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
//
// The tool runs nothing but these figures. The queue counters, the
// broker, fan-in, shared-memory and latency measurements beside them
// live in perfbench, ffq-top and the gate tests of internal/workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ffq/internal/affinity"
	"ffq/internal/cachesim"
	"ffq/internal/experiments"
	"ffq/internal/report"
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
	flag.Parse()

	o := experiments.DefaultOptions()
	o.Runs = *runs
	o.Scale = *scale
	o.MinSizeExp = *minExp
	o.MaxSizeExp = *maxExp
	o.MaxThreads = *maxThreads

	if err := runFigures(o, *fig, *server, *pairs, *csv); err != nil {
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
