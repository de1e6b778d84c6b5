package core

import "runtime"

// defaultYieldThreshold is the number of failed polls after which a
// spinning thread starts yielding its processor to the Go scheduler.
// Below the threshold the thread busy-waits, which matches the paper's
// "back off and wait for a few nanoseconds" (Algorithm 1, line 32);
// above it the thread is likely waiting on a descheduled peer, and
// yielding lets that peer run. On a uniprocessor spinning can never
// help — the peer needs this CPU — so the threshold drops to 1, the
// same reasoning the Go runtime applies to mutex spinning.
//
// WithYieldThreshold overrides the value per queue.
var defaultYieldThreshold = func() int {
	if runtime.NumCPU() > 1 {
		return 64
	}
	return 1
}()

// Backoff is the exported face of backoff, the one spin/yield policy
// that the spin-backoff lint check (internal/analysis) names as a
// designated backoff point for spin loops outside this package. See
// backoff.
func Backoff(spins, threshold int) bool { return backoff(spins, threshold) }

// backoff delays a spinning thread and reports whether it yielded the
// processor (rather than busy-waiting), so instrumented callers can
// count scheduler round-trips. spins counts consecutive failed polls
// of the same cell; threshold is the queue's yield threshold.
func backoff(spins, threshold int) bool {
	if spins < threshold {
		cpuRelax()
		return false
	}
	runtime.Gosched()
	return true
}

// cpuRelax burns a few cycles without touching shared memory. Go does
// not expose a PAUSE intrinsic; the gc compiler does not eliminate
// counted empty loops, so this stands in for it.
//
//go:noinline
func cpuRelax() {
	for i := 0; i < 32; i++ {
	}
}
