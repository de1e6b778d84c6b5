// Command ffq-top runs a configurable produce/consume workload on an
// instrumented FFQ queue and renders a refreshing terminal view of its
// live internals: depth, enqueue/dequeue rates, spin ratios, scheduler
// yields, gap creation/skip counts and the blocking-wait histogram —
// the quantities behind the paper's evaluation (Figures 2-8), live.
//
// Usage:
//
//	ffq-top                                  # spmc, 4 consumers, 1024 slots
//	ffq-top -variant mpmc -producers 4 -consumers 2 -cap 64 \
//	        -consumer-delay 2us              # small queue + slow consumers = gaps
//	ffq-top -http :8077                      # also serve /metrics (Prometheus)
//	                                         # and /debug/vars (expvar)
//	ffq-top -yield-threshold 1               # exaggerate scheduler yields
//	ffq-top -variant sharded -producers 4 \
//	        -consumers 2 -cap 256            # per-producer FFQ^s lanes:
//	                                         # -cap is the per-lane depth;
//	                                         # the view and /metrics gain
//	                                         # per-lane depths
//	ffq-top -latency                         # per-op latency percentiles
//	                                         # (p50/p99/p999/max) per frame
//	ffq-top -latency -stall-threshold 1ms \
//	        -consumer-delay 2ms              # arm the stall watchdog; waits
//	                                         # past the threshold appear as
//	                                         # timestamped stall events
//
// The terminal view refreshes in place every -interval. With -plain
// (or when stdout is not a terminal) it appends one summary line per
// tick instead, suitable for piping. The run stops after -duration
// (0 = until interrupted).
//
// With -scrape ffq-top drives no workload at all: it polls a running
// ffqd broker's /metrics endpoint instead and renders the broker's
// connection and message counters plus a per-topic table — depth,
// subscribers, outstanding credit, enqueue/dequeue rates and the mean
// EnqueueBatch size over the last interval:
//
//	ffq-top -scrape localhost:9077           # same as http://localhost:9077/metrics
//	ffq-top -scrape http://host:9077/metrics -interval 2s -plain
//
// Against a cluster, -scrape takes every node's metrics endpoint at
// once (comma-separated) and renders a per-node summary plus a
// per-node × per-partition table: each partitioned topic ("base@N")
// shows its live depth and replication lag — local WAL head versus
// the most advanced copy in the cluster — on every node holding it:
//
//	ffq-top -scrape n1:9077,n2:9077,n3:9077
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ffq/internal/core"
	"ffq/internal/obs"
	"ffq/internal/obs/expvarx"
)

// queue adapts the core variants behind one face.
type queue interface {
	enqueue(v uint64)
	dequeue() (uint64, bool)
	close()
	len() int
	stats() obs.Stats
}

// laneQueue is the extra face of the sharded variant: producers take
// an exclusive wait-free lane and the live view gains per-lane depths.
type laneQueue interface {
	producer() (enq func(uint64), release func())
	laneLens() []int
}

type spscQ struct{ q *core.SPSC[uint64] }

func (s spscQ) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s spscQ) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s spscQ) close()                  { s.q.Close() }
func (s spscQ) len() int                { return s.q.Len() }
func (s spscQ) stats() obs.Stats        { return s.q.Stats() }

type spmcQ struct{ q *core.SPMC[uint64] }

func (s spmcQ) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s spmcQ) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s spmcQ) close()                  { s.q.Close() }
func (s spmcQ) len() int                { return s.q.Len() }
func (s spmcQ) stats() obs.Stats        { return s.q.Stats() }

type mpmcQ struct{ q *core.MPMC[uint64] }

func (s mpmcQ) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s mpmcQ) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s mpmcQ) close()                  { s.q.Close() }
func (s mpmcQ) len() int                { return s.q.Len() }
func (s mpmcQ) stats() obs.Stats        { return s.q.Stats() }

type shardedQ struct{ q *core.Sharded[uint64] }

// enqueue is the shared-lane fallback path; producer goroutines use
// producer() for an exclusive lane instead.
func (s shardedQ) enqueue(v uint64)        { s.q.Enqueue(v) }
func (s shardedQ) dequeue() (uint64, bool) { return s.q.Dequeue() }
func (s shardedQ) close()                  { s.q.Close() }
func (s shardedQ) len() int                { return s.q.Len() }
func (s shardedQ) stats() obs.Stats        { return s.q.Stats() }
func (s shardedQ) laneLens() []int         { return s.q.LaneLens(nil) }

func (s shardedQ) producer() (func(uint64), func()) {
	if h, ok := s.q.Acquire(); ok {
		return h.Enqueue, h.Release
	}
	// All lanes taken (more producers than lanes-1): fall back to the
	// shared lane.
	return s.q.Enqueue, func() {}
}

// newQueue builds the selected variant. For sharded the capacity is
// the per-lane depth and the queue gets one exclusive lane per
// producer (plus the shared fallback).
func newQueue(variant string, capacity, producers int, opts ...core.Option) (queue, error) {
	switch variant {
	case "spsc":
		q, err := core.NewSPSC[uint64](capacity, opts...)
		return spscQ{q}, err
	case "spmc":
		q, err := core.NewSPMC[uint64](capacity, opts...)
		return spmcQ{q}, err
	case "mpmc":
		q, err := core.NewMPMC[uint64](capacity, opts...)
		return mpmcQ{q}, err
	case "sharded":
		q, err := core.NewSharded[uint64](producers+1, capacity, opts...)
		return shardedQ{q}, err
	default:
		return nil, fmt.Errorf("unknown variant %q (have spsc, spmc, mpmc, sharded)", variant)
	}
}

func main() {
	variant := flag.String("variant", "spmc", "queue variant: spsc, spmc, mpmc or sharded")
	producers := flag.Int("producers", 1, "producer goroutines (>1 requires a multi-producer variant)")
	consumers := flag.Int("consumers", 4, "consumer goroutines (spsc requires exactly 1)")
	capacity := flag.Int("cap", 1<<10, "queue capacity (power of two)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	duration := flag.Duration("duration", 0, "run length (0 = until interrupted)")
	httpAddr := flag.String("http", "", "serve /metrics (Prometheus) and /debug/vars (expvar) on this address")
	yieldTh := flag.Int("yield-threshold", 0, "spin count before yielding to the scheduler (0 = default)")
	prodDelay := flag.Duration("producer-delay", 0, "artificial work per enqueue")
	consDelay := flag.Duration("consumer-delay", 0, "artificial work per dequeue (slows consumers, forces gaps)")
	plain := flag.Bool("plain", false, "append one line per tick instead of refreshing in place")
	latency := flag.Bool("latency", false, "record per-op latency histograms and show p50/p99/p999/max per refresh")
	stallTh := flag.Duration("stall-threshold", 0, "arm the stall watchdog: waits past this become timestamped stall events (0 = off)")
	scrape := flag.String("scrape", "", "watch running ffqd brokers instead: poll these /metrics URLs, comma-separated (host:port implies http and /metrics; several = cluster view)")
	flag.Parse()

	if *scrape != "" {
		if err := runScrape(*scrape, *interval, *duration, *plain); err != nil {
			fatal(err)
		}
		return
	}

	if *producers < 1 || *consumers < 1 {
		fatal(fmt.Errorf("need at least one producer and one consumer"))
	}
	if *producers > 1 && *variant != "mpmc" && *variant != "sharded" {
		fatal(fmt.Errorf("%d producers require -variant mpmc or sharded", *producers))
	}
	if *variant == "spsc" && *consumers != 1 {
		fatal(fmt.Errorf("spsc supports exactly 1 consumer, got %d", *consumers))
	}

	opts := []core.Option{
		core.WithInstrumentation(),
		core.WithLayout(core.LayoutPadded),
		core.WithYieldThreshold(*yieldTh),
	}
	if *latency {
		opts = append(opts, core.WithOpLatency())
	}
	if *stallTh > 0 {
		opts = append(opts, core.WithStallWatchdog(*stallTh))
	}
	q, err := newQueue(*variant, *capacity, *producers, opts...)
	if err != nil {
		fatal(err)
	}
	info := expvarx.QueueInfo{
		Stats: q.stats,
		Len:   q.len,
		Cap:   *capacity,
	}
	if lq, ok := q.(laneQueue); ok {
		info.LaneLens = lq.laneLens
	}
	if err := expvarx.Register("ffq-top", info); err != nil {
		fatal(err)
	}

	if *httpAddr != "" {
		http.Handle("/metrics", expvarx.Handler())
		//ffq:detached metrics server serves until the process exits; ListenAndServe never returns cleanly
		go func() {
			// DefaultServeMux already carries expvar's /debug/vars.
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "ffq-top: http:", err)
			}
		}()
	}

	// Workload. Producers enqueue monotonic counters until told to
	// stop; consumers drain until the queue closes. The artificial
	// delays are busy-waits: sleeping would park the goroutine and
	// hide exactly the spin behavior this tool visualizes.
	var stop atomic.Bool
	var prodWG, consWG sync.WaitGroup
	for p := 0; p < *producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "producer", "ffq_worker", strconv.Itoa(p),
			), func(context.Context) {
				enq := q.enqueue
				if lq, ok := q.(laneQueue); ok {
					var release func()
					enq, release = lq.producer()
					defer release()
				}
				var n uint64
				for !stop.Load() {
					enq(n)
					n++
					busyWait(*prodDelay)
				}
			})
		}(p)
	}
	for c := 0; c < *consumers; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			pprof.Do(context.Background(), pprof.Labels(
				"ffq_role", "consumer", "ffq_worker", strconv.Itoa(c),
			), func(context.Context) {
				for {
					if _, ok := q.dequeue(); !ok {
						return
					}
					busyWait(*consDelay)
				}
			})
		}(c)
	}

	// Drive the display until the deadline or a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	start := time.Now()
	prev := q.stats()
	prevAt := start
loop:
	for {
		select {
		case <-sig:
			break loop
		case <-deadline:
			break loop
		case now := <-ticker.C:
			cur := q.stats()
			var lanes []int
			if lq, ok := q.(laneQueue); ok {
				lanes = lq.laneLens()
			}
			render(os.Stdout, *plain, *variant, *capacity, q.len(), lanes, now.Sub(start),
				cur, cur.Sub(prev), now.Sub(prevAt))
			prev, prevAt = cur, now
		}
	}

	// Shut down: stop producers first (MPMC close requires all
	// producers done), then close and let consumers drain.
	stop.Store(true)
	prodWG.Wait()
	q.close()
	consWG.Wait()

	final := q.stats()
	fmt.Printf("\n--- final after %s ---\n%s\n", time.Since(start).Round(time.Millisecond), final)
	if final.WaitCount > 0 {
		fmt.Printf("wait histogram: %s\n", sparkline(final.WaitBuckets))
	}
	if len(final.RecentStalls) > 0 {
		fmt.Printf("recent stalls (newest first, ring of %d):\n", len(final.RecentStalls))
		for _, ev := range final.RecentStalls {
			fmt.Printf("  %s %s rank=%d stalled %s\n",
				time.Unix(0, ev.UnixNano).Format("15:04:05.000"),
				ev.Role, ev.Rank, time.Duration(ev.DurationNS).Round(time.Microsecond))
		}
	}
}

// render draws one refresh frame (or appends one line with plain).
// lanes is nil except for the sharded variant, where it holds the
// per-lane depths (lane 0 = shared fallback) and capacity is per-lane.
func render(w *os.File, plain bool, variant string, capacity, depth int, lanes []int,
	elapsed time.Duration, cur, d obs.Stats, dt time.Duration) {
	secs := dt.Seconds()
	if secs <= 0 {
		secs = 1
	}
	if plain {
		fmt.Fprintf(w, "t=%-8s depth=%-6d enq/s=%-12.0f deq/s=%-12.0f spin/op=%-8.2f gaps=%d/%d",
			elapsed.Round(time.Second), depth,
			float64(d.Enqueues)/secs, float64(d.Dequeues)/secs,
			d.SpinRatio(), cur.GapsCreated, cur.GapsSkipped)
		if lanes != nil {
			fmt.Fprintf(w, " lanes=%v", lanes)
		}
		if cur.EnqLatency != nil && cur.EnqLatency.Count > 0 {
			fmt.Fprintf(w, " enq-p999=%s", time.Duration(cur.EnqLatency.P999NS))
		}
		if cur.DeqLatency != nil && cur.DeqLatency.Count > 0 {
			fmt.Fprintf(w, " deq-p999=%s", time.Duration(cur.DeqLatency.P999NS))
		}
		if cur.StallThresholdNS > 0 {
			fmt.Fprintf(w, " stalls=%d", cur.StallEvents)
		}
		fmt.Fprintln(w)
		return
	}
	var b strings.Builder
	// Clear screen, home cursor.
	b.WriteString("\x1b[2J\x1b[H")
	totalCap := capacity
	if lanes != nil {
		totalCap = capacity * len(lanes)
		fmt.Fprintf(&b, "ffq-top — %s lanes=%d lane-cap=%d — up %s\n\n",
			variant, len(lanes), capacity, elapsed.Round(time.Second))
	} else {
		fmt.Fprintf(&b, "ffq-top — %s cap=%d — up %s\n\n", variant, capacity, elapsed.Round(time.Second))
	}
	fmt.Fprintf(&b, "  depth      %10d / %d (%.0f%%)\n", depth, totalCap, 100*float64(depth)/float64(totalCap))
	if lanes != nil {
		fmt.Fprintf(&b, "  lane depth %10v (lane 0 = shared fallback)\n", lanes)
	}
	fmt.Fprintf(&b, "  enqueue/s  %10.0f   (total %d)\n", float64(d.Enqueues)/secs, cur.Enqueues)
	fmt.Fprintf(&b, "  dequeue/s  %10.0f   (total %d)\n", float64(d.Dequeues)/secs, cur.Dequeues)
	fmt.Fprintf(&b, "  full spins %10.0f/s (total %d, %.3f per enqueue)\n",
		float64(d.FullSpins)/secs, cur.FullSpins, per(cur.FullSpins, cur.Enqueues))
	fmt.Fprintf(&b, "  empty spins%10.0f/s (total %d, %.3f per dequeue)\n",
		float64(d.EmptySpins)/secs, cur.EmptySpins, per(cur.EmptySpins, cur.Dequeues))
	fmt.Fprintf(&b, "  yields     %10.0f/s (producer %d, consumer %d)\n",
		float64(d.ProducerYields+d.ConsumerYields)/secs, cur.ProducerYields, cur.ConsumerYields)
	fmt.Fprintf(&b, "  gaps       %10.0f/s created (total %d created, %d skipped)\n",
		float64(d.GapsCreated)/secs, cur.GapsCreated, cur.GapsSkipped)
	if cur.WaitCount > 0 {
		fmt.Fprintf(&b, "  waits      %10d   mean %s\n", cur.WaitCount, cur.MeanWait())
		fmt.Fprintf(&b, "  wait hist  %s  (64ns .. 17s, log2 buckets)\n", sparkline(cur.WaitBuckets))
	}
	if cur.EnqLatency != nil && cur.EnqLatency.Count > 0 {
		fmt.Fprintf(&b, "  enq lat    %s\n", latRow(cur.EnqLatency))
	}
	if cur.DeqLatency != nil && cur.DeqLatency.Count > 0 {
		fmt.Fprintf(&b, "  deq lat    %s\n", latRow(cur.DeqLatency))
	}
	if cur.StallThresholdNS > 0 {
		fmt.Fprintf(&b, "  stalls     %10d   past %s (completed %d, mean %s)\n",
			cur.StallEvents, time.Duration(cur.StallThresholdNS), cur.StallCount, cur.MeanStall())
		for i, ev := range cur.RecentStalls {
			if i == 3 {
				break
			}
			fmt.Fprintf(&b, "    %s %s rank=%d stalled %s\n",
				time.Unix(0, ev.UnixNano).Format("15:04:05.000"),
				ev.Role, ev.Rank, time.Duration(ev.DurationNS).Round(time.Microsecond))
		}
	}
	fmt.Fprintf(&b, "\n(ctrl-c to stop)\n")
	w.WriteString(b.String())
}

// latRow formats a per-op latency snapshot as one aligned percentile
// line. The percentiles are cumulative, like the totals above them.
func latRow(s *obs.LatencySnapshot) string {
	return fmt.Sprintf("p50=%-10s p99=%-10s p999=%-10s max=%-10s (n=%d)",
		time.Duration(s.P50NS), time.Duration(s.P99NS),
		time.Duration(s.P999NS), time.Duration(s.MaxNS), s.Count)
}

// per returns n/d guarding the empty denominator.
func per(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// sparkline renders histogram buckets 6..34 (64ns..17s) as a bar rune
// per bucket, scaled to the largest bucket.
func sparkline(buckets []int64) string {
	const lo, hi = 6, 34
	bars := []rune("▁▂▃▄▅▆▇█")
	if len(buckets) < hi+1 {
		return ""
	}
	var max int64
	for e := lo; e <= hi; e++ {
		if buckets[e] > max {
			max = buckets[e]
		}
	}
	if max == 0 {
		return strings.Repeat(" ", hi-lo+1)
	}
	var b strings.Builder
	for e := lo; e <= hi; e++ {
		if buckets[e] == 0 {
			b.WriteRune(' ')
			continue
		}
		idx := int(buckets[e] * int64(len(bars)-1) / max)
		b.WriteRune(bars[idx])
	}
	return b.String()
}

// busyWait spins for roughly d without sleeping (sleeping parks the
// goroutine and hides the queue's own spin behavior). Long delays fall
// back to Sleep to stay scheduler-friendly.
func busyWait(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffq-top:", err)
	os.Exit(1)
}
