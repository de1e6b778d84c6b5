package core

import (
	"time"

	"ffq/internal/obs"
)

// Option configures a queue at construction time.
type Option func(*config)

type config struct {
	layout  Layout
	rec     *obs.Recorder
	yieldTh int
	opLat   bool
	stallTh time.Duration
}

// recorder materializes the configured Recorder: latency recording or
// a stall watchdog force one into existence even when neither
// WithInstrumentation nor WithRecorder was given, and the requested
// extensions are attached before the Recorder is shared with a queue.
func (c *config) recorder() *obs.Recorder {
	r := c.rec
	if r == nil && (c.opLat || c.stallTh != 0) {
		r = obs.NewRecorder()
	}
	if r != nil {
		if c.opLat {
			r.EnableOpLatency()
		}
		if c.stallTh != 0 {
			r.EnableStallWatchdog(c.stallTh, 0)
		}
	}
	return r
}

func defaultConfig() config {
	return config{layout: LayoutCompact, yieldTh: defaultYieldThreshold}
}

// WithLayout selects the memory layout of the cell array. The default
// is LayoutCompact. See the Layout constants for the four
// configurations evaluated in the paper's Figure 2.
func WithLayout(l Layout) Option {
	return func(c *config) { c.layout = l }
}

// WithInstrumentation attaches a fresh obs.Recorder to the queue:
// operations, spins, yields, gaps and blocking-wait latencies are
// counted from then on, readable through the queue's Stats and
// Recorder methods. Without this option (the default) the queue keeps
// no per-operation metrics and the hot paths pay only a single
// predicted nil-check branch.
func WithInstrumentation() Option {
	return WithRecorder(obs.NewRecorder())
}

// WithRecorder attaches a specific Recorder, letting several queues
// share one aggregate (for example a whole pool of per-producer SPMC
// queues). A nil r disables instrumentation.
func WithRecorder(r *obs.Recorder) Option {
	return func(c *config) { c.rec = r }
}

// WithOpLatency enables per-operation latency recording: every
// completed blocking Enqueue/Dequeue records its full latency (two
// clock reads per op) into HDR-style histograms readable via the
// queue's Stats (EnqLatency/DeqLatency percentile snapshots). Implies
// an attached Recorder: one is created if no WithInstrumentation /
// WithRecorder option supplies it. Enable for latency runs, not
// throughput baselines.
func WithOpLatency() Option {
	return func(c *config) { c.opLat = true }
}

// WithStallWatchdog arms the stall watchdog: blocking waits that cross
// threshold emit timestamped stall events (role, rank, duration) into
// a lock-free event ring and a stall-duration histogram, readable via
// the queue's Stats (StallEvents, RecentStalls, StallBuckets). The
// in-loop elapsed check reads the clock once per 64 spin iterations,
// so an armed-but-quiet watchdog costs nothing measurable. threshold
// <= 0 selects obs.DefaultStallThreshold. Implies an attached Recorder
// (as WithOpLatency).
func WithStallWatchdog(threshold time.Duration) Option {
	return func(c *config) {
		if threshold <= 0 {
			threshold = obs.DefaultStallThreshold
		}
		c.stallTh = threshold
	}
}

// WithYieldThreshold overrides the number of consecutive failed polls
// after which a spinning goroutine yields to the Go scheduler instead
// of busy-waiting. The default is 64 on multiprocessors and 1 on a
// uniprocessor. Lower values trade latency for CPU time on
// oversubscribed machines; n <= 0 resets to the default. Mostly a
// demonstration and testing knob (ffq-top uses it to exaggerate yield
// behavior).
func WithYieldThreshold(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = defaultYieldThreshold
		}
		c.yieldTh = n
	}
}
