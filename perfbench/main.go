// Command perfbench is the ffq benchmark. One run measures one
// workload, driving the queue and the ffqd broker from outside through
// their public entry points:
//
//	python3 perfbench/run.py --workload pubsub-burst --seed 1 --seconds 10 --trace 0
//
// run.py builds this program and runs it; README.md describes the
// workloads and metrics. Every delivered message is checked (exactly
// once, in per-producer FIFO order, with the payload bytes the seed
// generates). The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 they are the per-layer
// set, taken from a traced run plus layer probes. The process exits
// non-zero when any check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"max_rss_mb", "MB"},
}

// perLayer is reported by the traced run and the layer probes, which
// run on every workload.
var perLayer = []metricDef{
	{"core.enqueue_ns", "ns"},
	{"core.dequeue_ns", "ns"},
	{"core.full_spins_per_op", "count"},
	{"core.empty_spins_per_op", "count"},
	{"core.yields_per_op", "count"},
	{"core.gaps_skipped_per_op", "count"},
	{"core.queue_depth", "count"},
	{"lanes.enqueue_ns_per_msg", "ns"},
	{"lanes.dequeue_ns_per_msg", "ns"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.decode_allocs_per_frame", "count"},
	{"socket.bytes_in_per_msg", "B"},
	{"socket.bytes_out_per_msg", "B"},
	{"socket.reads_per_msg", "count"},
	{"socket.writes_per_msg", "count"},
	{"socket.write_ns", "ns"},
	{"broker.ingress_batch", "count"},
	{"broker.egress_batch", "count"},
	{"broker.acks_per_produce_frame", "count"},
	{"broker.residence_p50_us", "us"},
	{"broker.residence_p99_us", "us"},
	{"wal.bytes_per_msg", "B"},
	{"wal.append_ns_per_msg", "ns"},
	{"wal.append_over_write_ns_per_msg", "ns"},
	{"client.publish_ns", "ns"},
	{"client.publish_p99_ns", "ns"},
	{"client.recv_wait_ns", "ns"},
	{"client.drain_ms", "ms"},
	{"shm.publish_ns_per_msg", "ns"},
	{"shm.drain_ns_per_msg", "ns"},
	{"shm.drain_allocs_per_msg", "count"},
	{"gen.late_p99_us", "us"},
	{"unattributed_cpu_share", "ratio"},
	{"trace.overhead_msgs_per_s", "1/s"},
	{"trace.overhead_cpu_us_per_msg", "us"},
}

// config is one run's settings, from the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// fault injects a failure to prove the checks catch it
	// ("drop-deliver": the broker side drops one DELIVER frame).
	fault string
	// workDir holds the run's WAL, shm segments and probe files; it is
	// removed at the end.
	workDir string
	// traceDir receives the traced run's spans.
	traceDir string
	commit   string
}

// setupRounds is how many times an untraced run sets the system up
// (the last set-up carries the measured run); setup_s is their median.
const setupRounds = 45

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for payload bytes and arrival times")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.fault, "fault", "", `inject a fault: "drop-deliver"`)
	flag.StringVar(&cfg.workDir, "work-dir", "", "scratch directory (removed at exit)")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for span files (traced runs)")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision, for provenance")
	flag.Parse()
	cfg.trace = *trace != 0
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 1 || (cfg.fault != "" && cfg.fault != "drop-deliver") {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1; --fault takes drop-deliver")
		return 2
	}
	if cfg.workDir == "" {
		cfg.workDir = filepath.Join(os.TempDir(), fmt.Sprintf("perfbench-%d", os.Getpid()))
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir)

	res, info, err := runWorkload(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{"provenance": provenance(cfg), "info": info})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed the checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// provenance records the host and inputs a result came from.
func provenance(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     cfg.commit,
		"network":    "loopback (127.0.0.1): traffic crossed the kernel's loopback device, not a real link",
		"load":       "one process; at most 2 busy generator goroutines, 1 producer + 1 consumer connection",
	}
}

// runWorkload runs w untraced (end-to-end metrics) or, with --trace 1,
// once untraced and once traced for half the time each, followed by
// the layer probes (per-layer metrics).
func runWorkload(cfg *config, w workload) (result, map[string]any, error) {
	info := map[string]any{"why": w.why}
	if !cfg.trace {
		r, err := w.run(cfg, time.Duration(cfg.seconds)*time.Second, nil)
		if err != nil {
			return result{}, nil, err
		}
		if err := r.validate(); err != nil {
			return result{}, nil, err
		}
		res := newResult(r.attempted, r.failed)
		for name, v := range r.endToEnd() {
			res.Metrics[name] = metric{v, unitOf(endToEnd, name)}
		}
		info["run"] = r.summary()
		return res, info, nil
	}

	half := time.Duration(cfg.seconds) * time.Second / 2
	base, err := w.run(cfg, half, nil)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer(1 << 15)
	traced, err := w.run(cfg, half, tr)
	if err != nil {
		return result{}, nil, err
	}
	p, err := runProbes(cfg, traced)
	if err != nil {
		return result{}, nil, err
	}
	res := newResult(base.attempted+traced.attempted, base.failed+traced.failed)
	for name, v := range layerMetrics(base, traced, p) {
		res.Metrics[name] = metric{v, unitOf(perLayer, name)}
	}
	info["untraced"] = base.summary()
	info["traced"] = traced.summary()
	info["probes"] = p
	info["baseline_costs"] = map[string]string{
		"wire.decode_allocs_per_frame":     "3 = wire.CopyMessages arena + its slice headers + the staging []msg",
		"wal.append_over_write_ns_per_msg": "Append encodes again payload bytes that arrived already encoded in the PRODUCE frame, then CRCs them",
		"shm.drain_allocs_per_msg":         "one payload copy per message in TryDrain; the shm pump adds one []msg per drain",
	}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		summary, err := tr.writeFile(path)
		if err != nil {
			return result{}, nil, err
		}
		info["trace_file"] = path
		info["trace_self_time"] = summary
	}
	return res, info, nil
}

func newResult(attempted, failed int64) result {
	return result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric without a definition: " + name)
}

// ---- statistics ----

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

func sortInt64(vs []int64) []int64 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

var errNoMessages = errors.New("no message was delivered during the measured windows")
