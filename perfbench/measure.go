package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// payloadSize is the message size of every broker workload.
const payloadSize = 64

// maxLateP99 is the open-loop validity bound: in a window where the
// generator sent its p99 message later than this after its intended
// time, the scheduled load was not offered, so the window's latency is
// not used. A run with fewer than a quarter of its windows valid
// reports no latency at all.
const maxLateP99 = 5 * time.Millisecond

// epoch anchors nowNS, the monotonic clock every sample uses.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// ---- seeded inputs ----

const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// itemValue is the seq-th value the spmc-pair producer enqueues: the
// sequence number in the high half, seeded bits in the low half.
func itemValue(seed, seq uint64) uint64 {
	//ffq:ignore lap-packing not a queue state word: a benchmark item carrying its sequence number for the checker
	return seq<<32 | mix64(seed+seq*golden)&0xFFFFFFFF
}

// fillPayload writes message seq: its sequence number, then bytes drawn
// from the seed, so the consumer can regenerate and compare them.
func fillPayload(b []byte, seed, seq uint64) {
	binary.LittleEndian.PutUint64(b, seq)
	x := seed ^ mix64(seq+1)
	for off := 8; off < payloadSize; off += 8 {
		x += golden
		binary.LittleEndian.PutUint64(b[off:], mix64(x))
	}
}

// payloadOK reports whether b is exactly message seq.
func payloadOK(b []byte, seed, seq uint64) bool {
	if len(b) != payloadSize || binary.LittleEndian.Uint64(b) != seq {
		return false
	}
	x := seed ^ mix64(seq+1)
	for off := 8; off < payloadSize; off += 8 {
		x += golden
		if binary.LittleEndian.Uint64(b[off:]) != mix64(x) {
			return false
		}
	}
	return true
}

// checker verifies one producer's stream at its consumer: exactly
// once, in FIFO order, with the seeded bytes.
type checker struct {
	seed uint64
	next uint64 // the sequence number expected next
	// lost counts skipped sequence numbers, dup those seen again or out
	// of order, corrupt payloads whose bytes do not match the seed.
	lost, dup, corrupt int64
}

// check consumes one delivered payload and returns its sequence number
// (ok=false when the payload is too short to carry one).
func (c *checker) check(p []byte) (seq uint64, ok bool) {
	if len(p) < 8 {
		c.corrupt++
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(p)
	c.observe(seq, payloadOK(p, c.seed, seq))
	return seq, true
}

// observe records that message seq arrived, intact or not.
func (c *checker) observe(seq uint64, intact bool) {
	if !intact {
		c.corrupt++
	}
	switch {
	case seq == c.next:
		c.next++
	case seq > c.next:
		c.lost += int64(seq - c.next)
		c.next = seq + 1
	default:
		c.dup++
	}
}

func (c *checker) record(failures map[string]int64) {
	failures["lost"] += c.lost
	failures["duplicated_or_reordered"] += c.dup
	failures["corrupted"] += c.corrupt
}

// finish accounts for messages published but never delivered.
func (c *checker) finish(published uint64) {
	if published > c.next {
		c.lost += int64(published - c.next)
	}
}

func (c *checker) failures() int64 { return c.lost + c.dup + c.corrupt }

// stampRing carries send timestamps from a producer to its consumer:
// slot seq&mask holds the stamp for sample number seq. The ring is far
// larger than the number of messages in flight, so a slot is never
// overwritten before it is read; a mismatched tag skips the sample.
type stampRing struct {
	tag  []atomic.Uint64
	ns   []atomic.Int64
	mask uint64
}

func newStampRing(size int) *stampRing {
	return &stampRing{tag: make([]atomic.Uint64, size), ns: make([]atomic.Int64, size), mask: uint64(size - 1)}
}

func (r *stampRing) put(seq uint64, ns int64) {
	i := seq & r.mask
	r.ns[i].Store(ns)
	r.tag[i].Store(seq + 1)
}

func (r *stampRing) get(seq uint64) (int64, bool) {
	i := seq & r.mask
	if r.tag[i].Load() != seq+1 {
		return 0, false
	}
	return r.ns[i].Load(), true
}

// ---- process counters ----

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ---- measurement windows ----

const (
	phaseWarm    = 0
	phaseMeasure = 1
	phaseStop    = 2
)

// meter runs the measured phase: a warm-up, then fixed windows, each
// recording delivered messages and process CPU. The generator stops
// when phase reaches phaseStop. Consumers publish their delivered
// count every few messages; rates come from the windows' own clocks.
type meter struct {
	delivered atomic.Int64
	phase     atomic.Int32
	// bounds holds the nowNS clock at the start and end of each window.
	bounds []int64
}

// window is one measured interval.
type window struct {
	seconds float64
	msgs    int64
	cpuNS   int64
}

// warmUp precedes the measured windows of the broker workloads.
const warmUp = 500 * time.Millisecond

// windowsFor is the number of measurement windows in d: one a second,
// at least four.
func windowsFor(d time.Duration) int { return max(4, int(d/time.Second)) }

// measure blocks for warm plus d, split into n windows, then signals
// stop.
func (m *meter) measure(warm, d time.Duration, n int) []window {
	time.Sleep(warm)
	m.phase.Store(phaseMeasure)
	type snap struct {
		t    time.Time
		msgs int64
		cpu  int64
	}
	take := func() snap {
		m.bounds = append(m.bounds, nowNS())
		return snap{time.Now(), m.delivered.Load(), cpuNS()}
	}
	prev := take()
	ws := make([]window, 0, n)
	for i := 0; i < n; i++ {
		time.Sleep(d / time.Duration(n))
		cur := take()
		ws = append(ws, window{cur.t.Sub(prev.t).Seconds(), cur.msgs - prev.msgs, cur.cpu - prev.cpu})
		prev = cur
	}
	m.phase.Store(phaseStop)
	return ws
}

// ---- one run's outcome ----

// runResult is what one measured run of a workload produced.
type runResult struct {
	attempted, failed int64
	// failures breaks failed down by cause.
	failures map[string]int64
	// delivered counts messages the measured instance delivered,
	// warm-up and drain included.
	delivered int64
	setup     []float64 // seconds, one per set-up round
	windows   []window
	// latP50 and latP99 are latency quantiles in ns: the median over
	// measurement windows (or sample groups) of each one's quantile.
	latP50, latP99 float64
	latSamples     int
	// windowP99 lists each window's (or group's) latency p99, ns.
	windowP99 []float64
	// allocs counts heap allocations from the measured instance's
	// construction to its teardown.
	allocs uint64
	rssMB  float64
	// lateP99 is the open-loop generator's lateness p99 (ns), the
	// median over windows; invalidWindows counts windows whose lateness
	// broke maxLateP99.
	lateP99        float64
	invalidWindows int
	windowLateP99  []float64
	// layer holds the per-layer counters a traced run read.
	layer map[string]float64
	// ingressBatch and egressBatch are the batch sizes the run realized
	// (messages per PRODUCE and per DELIVER frame, or per shm drain; 0
	// when no such frame was sent); the wire probe runs at them.
	// walBatch is the mean messages per WAL record (durable workloads).
	// probeBatch is the batch that reached the topic lanes and the WAL;
	// the lanes, WAL and shm probes run at it.
	ingressBatch, egressBatch, walBatch, probeBatch float64
	// layers names the layers on the workload's path, for the
	// unattributed CPU share.
	layers []string
	// queueDepth holds spmc-pair's mean queue depth per sub-run.
	queueDepth []float64
}

func (r *runResult) msgsPerS() float64 {
	vs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		vs = append(vs, float64(w.msgs)/w.seconds)
	}
	return median(vs)
}

func (r *runResult) windowRates() []float64 {
	vs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		vs = append(vs, math.Round(float64(w.msgs)/w.seconds))
	}
	return vs
}

func (r *runResult) windowCPU() []float64 {
	vs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		vs = append(vs, float64(w.cpuNS)/float64(max(w.msgs, 1))/1e3)
	}
	return vs
}

// setLatency reduces latency samples taken in groups (one per window)
// to the median over groups of each group's p50 and p99. A group
// counts only when at least ten samples lie beyond its p99; when none
// does (very short runs) the pooled samples stand in.
func (r *runResult) setLatency(groups [][]int64) {
	var p50s, p99s []float64
	var all []int64
	for _, g := range groups {
		r.latSamples += len(g)
		all = append(all, g...)
		if len(g) < 1000 {
			continue
		}
		g = sortInt64(g)
		p50s = append(p50s, quantile(g, 0.50))
		p99s = append(p99s, quantile(g, 0.99))
	}
	r.windowP99 = p99s
	if len(p50s) == 0 {
		all = sortInt64(all)
		r.latP50, r.latP99 = quantile(all, 0.50), quantile(all, 0.99)
		return
	}
	r.latP50, r.latP99 = median(p50s), median(p99s)
}

// dropLateWindows removes the latency groups of windows in which the
// generator's lateness p99 broke maxLateP99, and records the median
// lateness p99 over windows.
func (r *runResult) dropLateWindows(lat, late [][]int64) [][]int64 {
	var p99s []float64
	kept := make([][]int64, 0, len(lat))
	for i, g := range late {
		p99 := quantile(sortInt64(g), 0.99)
		p99s = append(p99s, p99)
		if p99 > float64(maxLateP99) {
			r.invalidWindows++
			continue
		}
		kept = append(kept, lat[i])
	}
	r.lateP99 = median(p99s)
	r.windowLateP99 = p99s
	return kept
}

// byWindow splits samples taken at times at into the windows bounds
// delimits; samples outside every window are dropped.
func byWindow(at, vals, bounds []int64) [][]int64 {
	if len(bounds) < 2 {
		return nil
	}
	groups := make([][]int64, len(bounds)-1)
	for i, t := range at {
		w := sort.Search(len(bounds), func(j int) bool { return bounds[j] > t }) - 1
		if w >= 0 && w < len(groups) {
			groups[w] = append(groups[w], vals[i])
		}
	}
	return groups
}

func (r *runResult) cpuUSPerMsg() float64 {
	vs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		if w.msgs > 0 {
			vs = append(vs, float64(w.cpuNS)/float64(w.msgs)/1e3)
		}
	}
	return median(vs)
}

func (r *runResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(r.setup),
		"msgs_per_s":     r.msgsPerS(),
		"latency_p50_us": r.latP50 / 1e3,
		"latency_p99_us": r.latP99 / 1e3,
		"cpu_us_per_msg": r.cpuUSPerMsg(),
		"allocs_per_msg": float64(r.allocs) / float64(max(r.delivered, 1)),
		"max_rss_mb":     r.rssMB,
	}
}

// validate rejects runs whose numbers would mislead: nothing delivered,
// or an open-loop generator that fell behind its schedule.
func (r *runResult) validate() error {
	var msgs int64
	for _, w := range r.windows {
		msgs += w.msgs
	}
	if msgs == 0 || r.latSamples == 0 {
		return errNoMessages
	}
	if valid := len(r.windows) - r.invalidWindows; valid < max(1, len(r.windows)/4) {
		return fmt.Errorf("run invalid: in %d of %d windows the open-loop generator ran more than %v behind schedule at p99; no latency reported",
			r.invalidWindows, len(r.windows), maxLateP99)
	}
	return nil
}

func (r *runResult) summary() map[string]any {
	return map[string]any{
		"delivered":          r.delivered,
		"attempted":          r.attempted,
		"failed":             r.failed,
		"fail_ratio":         float64(r.failed) / float64(max(r.attempted, 1)),
		"failures":           r.failures,
		"windows":            len(r.windows),
		"latency_samples":    r.latSamples,
		"window_msgs_per_s":  r.windowRates(),
		"window_cpu_us_msg":  r.windowCPU(),
		"window_p99_ns":      r.windowP99,
		"window_late_p99_ns": r.windowLateP99,
		"gen_late_p99_us":    r.lateP99 / 1e3,
		"invalid_windows":    r.invalidWindows,
		"end_to_end":         r.endToEnd(),
		"window_queue_depth": r.queueDepth,
		"setup_samples_s":    r.setup,
	}
}
