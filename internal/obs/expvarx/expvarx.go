// Package expvarx exposes registered queue Recorders through the two
// monitoring faces Go services conventionally offer, using only the
// standard library:
//
//   - expvar: one "ffq" variable whose JSON value maps queue name to
//     its obs.Stats snapshot (shows up under /debug/vars with the
//     default http mux).
//   - Prometheus text exposition format (version 0.0.4) via Handler,
//     a plain http.Handler serving counters, depth gauges and the
//     blocking-wait histogram for every registered queue.
//
// Queues are registered by name with Register; the name becomes the
// {queue="..."} label. Registration is process-global, mirroring
// expvar's own model.
package expvarx

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ffq/internal/obs"
)

// QueueInfo describes one registered queue: how to snapshot its stats
// and, optionally, its instantaneous depth and fixed capacity (both
// exported as gauges when present).
type QueueInfo struct {
	// Stats snapshots the queue's counters. Required.
	Stats func() obs.Stats
	// Len returns the instantaneous queue depth. Optional.
	Len func() int
	// Cap is the queue capacity; exported when > 0.
	Cap int
	// LaneLens returns per-lane depths for sharded queues (exported as
	// the ffq_lane_depth gauge with a lane label). Optional.
	LaneLens func() []int
}

var (
	mu      sync.Mutex
	queues  = map[string]QueueInfo{}
	publish sync.Once
)

// Register adds a queue under name. It fails when the name is taken or
// the info has no Stats function. The first registration also publishes
// the aggregate "ffq" expvar variable.
func Register(name string, info QueueInfo) error {
	if info.Stats == nil {
		return fmt.Errorf("expvarx: queue %q registered without a Stats function", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := queues[name]; dup {
		return fmt.Errorf("expvarx: queue %q already registered", name)
	}
	queues[name] = info
	publish.Do(func() {
		expvar.Publish("ffq", expvar.Func(func() any { return snapshotAll() }))
	})
	return nil
}

// Unregister removes a queue; unknown names are a no-op. The expvar
// variable stays published (expvar has no unpublish) and simply stops
// listing the queue.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(queues, name)
}

// queueSnapshot is the expvar JSON value for one queue.
type queueSnapshot struct {
	Stats obs.Stats `json:"stats"`
	Len   int       `json:"len,omitempty"`
	Cap   int       `json:"cap,omitempty"`
	Lanes []int     `json:"lanes,omitempty"`
}

// snapshotAll materializes every registered queue's current state.
func snapshotAll() map[string]queueSnapshot {
	mu.Lock()
	infos := make(map[string]QueueInfo, len(queues))
	for n, i := range queues {
		infos[n] = i
	}
	mu.Unlock()
	out := make(map[string]queueSnapshot, len(infos))
	for n, i := range infos {
		s := queueSnapshot{Stats: i.Stats(), Cap: i.Cap}
		if i.Len != nil {
			s.Len = i.Len()
		}
		if i.LaneLens != nil {
			s.Lanes = i.LaneLens()
		}
		out[n] = s
	}
	return out
}

// Histogram buckets exported to Prometheus: 2^minHistExp ns (64ns) up
// to 2^maxHistExp ns (~17s), then +Inf. A fixed range keeps the bucket
// layout stable across scrapes, as Prometheus requires.
const (
	minHistExp = 6
	maxHistExp = 34
)

// counterMetric pairs a Prometheus metric name with its extractor.
type counterMetric struct {
	name, help string
	value      func(obs.Stats) int64
}

var counterMetrics = []counterMetric{
	{"ffq_enqueues_total", "Completed enqueue operations.", func(s obs.Stats) int64 { return s.Enqueues }},
	{"ffq_dequeues_total", "Completed dequeue operations.", func(s obs.Stats) int64 { return s.Dequeues }},
	{"ffq_full_spins_total", "Producer spin iterations on a full queue.", func(s obs.Stats) int64 { return s.FullSpins }},
	{"ffq_empty_spins_total", "Consumer spin iterations on an empty queue.", func(s obs.Stats) int64 { return s.EmptySpins }},
	{"ffq_producer_yields_total", "Producer backoffs that yielded to the scheduler.", func(s obs.Stats) int64 { return s.ProducerYields }},
	{"ffq_consumer_yields_total", "Consumer backoffs that yielded to the scheduler.", func(s obs.Stats) int64 { return s.ConsumerYields }},
	{"ffq_gaps_created_total", "Ranks skipped by producers (gap announcements).", func(s obs.Stats) int64 { return s.GapsCreated }},
	{"ffq_gaps_skipped_total", "Skipped ranks discarded by consumers.", func(s obs.Stats) int64 { return s.GapsSkipped }},
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Handler returns an http.Handler serving the Prometheus text
// exposition of every registered queue.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, Exposition())
	})
}

// writeTo renders all metrics. Kept unexported behind Exposition and
// Handler.
func writeTo(b *strings.Builder) {
	snaps := snapshotAll()
	names := make([]string, 0, len(snaps))
	for n := range snaps {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, m := range counterMetrics {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", m.name, m.help, m.name)
		for _, n := range names {
			fmt.Fprintf(b, "%s{queue=%q} %d\n", m.name, escapeLabel(n), m.value(snaps[n].Stats))
		}
	}

	fmt.Fprintf(b, "# HELP ffq_queue_depth Instantaneous queue length.\n# TYPE ffq_queue_depth gauge\n")
	for _, n := range names {
		fmt.Fprintf(b, "ffq_queue_depth{queue=%q} %d\n", escapeLabel(n), snaps[n].Len)
	}
	fmt.Fprintf(b, "# HELP ffq_queue_capacity Configured queue capacity.\n# TYPE ffq_queue_capacity gauge\n")
	for _, n := range names {
		if snaps[n].Cap > 0 {
			fmt.Fprintf(b, "ffq_queue_capacity{queue=%q} %d\n", escapeLabel(n), snaps[n].Cap)
		}
	}

	fmt.Fprintf(b, "# HELP ffq_lane_depth Instantaneous per-lane depth of sharded queues.\n# TYPE ffq_lane_depth gauge\n")
	for _, n := range names {
		for lane, depth := range snaps[n].Lanes {
			fmt.Fprintf(b, "ffq_lane_depth{queue=%q,lane=\"%d\"} %d\n", escapeLabel(n), lane, depth)
		}
	}

	fmt.Fprintf(b, "# HELP ffq_batch_items Items per batch operation.\n# TYPE ffq_batch_items histogram\n")
	for _, n := range names {
		s := snaps[n].Stats
		esc := escapeLabel(n)
		var cum int64
		// The last bucket also absorbs oversized batches (it is a
		// clamp), so it is folded into +Inf rather than given a finite
		// upper bound.
		for e := 0; e < obs.BatchHistBuckets-1; e++ {
			if len(s.BatchBuckets) > e {
				cum += s.BatchBuckets[e]
			}
			fmt.Fprintf(b, "ffq_batch_items_bucket{queue=%q,le=\"%d\"} %d\n", esc, int64(1)<<e, cum)
		}
		fmt.Fprintf(b, "ffq_batch_items_bucket{queue=%q,le=\"+Inf\"} %d\n", esc, s.BatchCount)
		fmt.Fprintf(b, "ffq_batch_items_sum{queue=%q} %d\n", esc, s.BatchSumItems)
		fmt.Fprintf(b, "ffq_batch_items_count{queue=%q} %d\n", esc, s.BatchCount)
	}

	fmt.Fprintf(b, "# HELP ffq_wait_ns Blocking-path wait time in nanoseconds.\n# TYPE ffq_wait_ns histogram\n")
	for _, n := range names {
		s := snaps[n].Stats
		esc := escapeLabel(n)
		var cum int64
		for e := 0; e <= maxHistExp; e++ {
			if len(s.WaitBuckets) > e {
				cum += s.WaitBuckets[e]
			}
			if e < minHistExp {
				continue
			}
			fmt.Fprintf(b, "ffq_wait_ns_bucket{queue=%q,le=\"%d\"} %d\n", esc, obs.BucketBound(e), cum)
		}
		fmt.Fprintf(b, "ffq_wait_ns_bucket{queue=%q,le=\"+Inf\"} %d\n", esc, s.WaitCount)
		fmt.Fprintf(b, "ffq_wait_ns_sum{queue=%q} %d\n", esc, s.WaitSumNS)
		fmt.Fprintf(b, "ffq_wait_ns_count{queue=%q} %d\n", esc, s.WaitCount)
	}

	// Per-op latency and stall families appear only for queues that
	// have the corresponding extension enabled (the snapshots are nil /
	// zero otherwise), keeping the default exposition unchanged.
	if anyOpLatency(snaps) {
		fmt.Fprintf(b, "# HELP ffq_op_latency_ns Full per-operation latency in nanoseconds.\n# TYPE ffq_op_latency_ns histogram\n")
		for _, n := range names {
			s := snaps[n].Stats
			writeOpLatency(b, escapeLabel(n), "enqueue", s.EnqLatency)
			writeOpLatency(b, escapeLabel(n), "dequeue", s.DeqLatency)
		}
	}
	if anyStalls(snaps) {
		fmt.Fprintf(b, "# HELP ffq_stall_events_total Detected stall episodes (waits beyond the watchdog threshold).\n# TYPE ffq_stall_events_total counter\n")
		for _, n := range names {
			if snaps[n].Stats.StallThresholdNS > 0 {
				fmt.Fprintf(b, "ffq_stall_events_total{queue=%q} %d\n", escapeLabel(n), snaps[n].Stats.StallEvents)
			}
		}
		fmt.Fprintf(b, "# HELP ffq_stall_seconds Completed stall durations in seconds.\n# TYPE ffq_stall_seconds histogram\n")
		for _, n := range names {
			s := snaps[n].Stats
			if s.StallThresholdNS == 0 {
				continue
			}
			esc := escapeLabel(n)
			var cum int64
			for e := 0; e <= maxHistExp; e++ {
				if len(s.StallBuckets) > e {
					cum += s.StallBuckets[e]
				}
				if e < minHistExp {
					continue
				}
				fmt.Fprintf(b, "ffq_stall_seconds_bucket{queue=%q,le=\"%g\"} %d\n", esc, float64(obs.BucketBound(e))/1e9, cum)
			}
			fmt.Fprintf(b, "ffq_stall_seconds_bucket{queue=%q,le=\"+Inf\"} %d\n", esc, s.StallCount)
			fmt.Fprintf(b, "ffq_stall_seconds_sum{queue=%q} %g\n", esc, float64(s.StallSumNS)/1e9)
			fmt.Fprintf(b, "ffq_stall_seconds_count{queue=%q} %d\n", esc, s.StallCount)
		}
	}

	writeCollected(b)
}

// anyOpLatency reports whether any registered queue carries per-op
// latency snapshots.
func anyOpLatency(snaps map[string]queueSnapshot) bool {
	for _, s := range snaps {
		if s.Stats.EnqLatency != nil || s.Stats.DeqLatency != nil {
			return true
		}
	}
	return false
}

// anyStalls reports whether any registered queue has the stall
// watchdog armed (a non-zero threshold marks the extension present
// even before the first stall).
func anyStalls(snaps map[string]queueSnapshot) bool {
	for _, s := range snaps {
		if s.Stats.StallThresholdNS > 0 {
			return true
		}
	}
	return false
}

// writeOpLatency emits one queue/op series of the ffq_op_latency_ns
// histogram, folding the HDR buckets down to the log2 exposition grid.
func writeOpLatency(b *strings.Builder, esc, op string, lat *obs.LatencySnapshot) {
	if lat == nil {
		return
	}
	log2 := lat.Log2Buckets()
	var cum int64
	for e := 0; e <= maxHistExp; e++ {
		if len(log2) > e {
			cum += log2[e]
		}
		if e < minHistExp {
			continue
		}
		fmt.Fprintf(b, "ffq_op_latency_ns_bucket{queue=%q,op=%q,le=\"%d\"} %d\n", esc, op, obs.BucketBound(e), cum)
	}
	fmt.Fprintf(b, "ffq_op_latency_ns_bucket{queue=%q,op=%q,le=\"+Inf\"} %d\n", esc, op, lat.Count)
	fmt.Fprintf(b, "ffq_op_latency_ns_sum{queue=%q,op=%q} %d\n", esc, op, lat.SumNS)
	fmt.Fprintf(b, "ffq_op_latency_ns_count{queue=%q,op=%q} %d\n", esc, op, lat.Count)
}

// EmitLatencySamples folds an obs.LatencySnapshot onto the
// exposition's log2 bucket grid and emits it through a Collector's
// callback as a cumulative histogram family (_bucket/_sum/_count), so
// collectors can publish latency histograms alongside their scalar
// samples. Nil or empty snapshots emit nothing.
func EmitLatencySamples(emit func(Sample), name, help string, labels map[string]string, lat *obs.LatencySnapshot) {
	if lat == nil || lat.Count == 0 {
		return
	}
	bucket := func(le string, cum int64) {
		l := map[string]string{"le": le}
		for k, v := range labels {
			l[k] = v
		}
		emit(Sample{Name: name + "_bucket", Help: help, Type: "histogram", Labels: l, Value: float64(cum)})
	}
	log2 := lat.Log2Buckets()
	var cum int64
	for e := 0; e <= maxHistExp; e++ {
		if len(log2) > e {
			cum += log2[e]
		}
		if e < minHistExp {
			continue
		}
		bucket(fmt.Sprintf("%d", obs.BucketBound(e)), cum)
	}
	bucket("+Inf", lat.Count)
	emit(Sample{Name: name + "_sum", Help: help, Type: "histogram", Labels: labels, Value: float64(lat.SumNS)})
	emit(Sample{Name: name + "_count", Help: help, Type: "histogram", Labels: labels, Value: float64(lat.Count)})
}

// Exposition renders the full Prometheus text body as a string.
func Exposition() string {
	var b strings.Builder
	writeTo(&b)
	return b.String()
}
