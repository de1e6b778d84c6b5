package obs

import (
	"sync/atomic"
	"time"
)

// Stall watchdog. A consumer parked between its fetch-and-add and the
// producer's rank publication — or a producer circling a full queue —
// spins every peer that depends on it (the failure mode wCQ documents
// for FFQ-family queues). The watchdog makes those episodes visible:
// every blocking wait site periodically checks its elapsed wait
// against a threshold, and a crossing emits a timestamped StallEvent
// (role, rank, duration) into a fixed-size lock-free ring plus the
// stall counter; when the wait finally completes, its full duration
// lands in a log2 stall-duration histogram. An episode that never
// completes therefore still shows up in the event ring and counter —
// that is the point of a watchdog — while the histogram counts only
// finished stalls.

// Role identifies which side of a queue an event belongs to.
type Role uint8

const (
	// RoleProducer marks producer-side (full-queue) waits.
	RoleProducer Role = iota
	// RoleConsumer marks consumer-side (empty-rank) waits.
	RoleConsumer
)

// String names the role.
func (r Role) String() string {
	if r == RoleProducer {
		return "producer"
	}
	return "consumer"
}

// MarshalText renders the role name into JSON-friendly text.
func (r Role) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a role name.
func (r *Role) UnmarshalText(b []byte) error {
	if string(b) == "producer" {
		*r = RoleProducer
	} else {
		*r = RoleConsumer
	}
	return nil
}

// StallEvent is one detected stall episode.
type StallEvent struct {
	// Role is the stalled side.
	Role Role `json:"role"`
	// Rank is the queue rank the stalled operation was waiting on
	// (-1 when the wait site has no single rank, e.g. a lane scan).
	Rank int64 `json:"rank"`
	// DurationNS is the elapsed wait when the event was emitted: the
	// threshold-crossing elapsed time for in-progress detections, the
	// full wait for episodes first noticed at completion.
	DurationNS int64 `json:"duration_ns"`
	// UnixNano is the wall-clock detection time.
	UnixNano int64 `json:"unix_nano"`
}

// DefaultStallRing is the event-ring capacity EnableStallWatchdog uses
// when given a non-positive size.
const DefaultStallRing = 64

// DefaultStallThreshold is the wait duration treated as a stall when
// the watchdog is enabled without an explicit threshold.
const DefaultStallThreshold = time.Millisecond

// stallCheckMask throttles the in-loop clock reads: a spin loop calls
// Recorder.StallCheck every iteration, but only one iteration in
// stallCheckMask+1 actually reads the clock. Wait loops already cost
// a backoff per iteration, so the amortized clock read is noise.
const stallCheckMask = 63

// stallSlot is one seqlock-protected ring entry, padded to a cache
// line so concurrent writers on neighbouring slots do not false-share.
// The event fields are individual atomics: the seqlock makes the
// multi-field copy logically consistent, but under the Go memory model
// only atomic accesses keep the concurrent reader race-free.
type stallSlot struct {
	// seq is even when the event is stable, odd while a writer owns
	// the slot. Writers claim with a CAS even->odd and drop the event
	// on a lost race, so a reader that sees the same even value before
	// and after its copy has a consistent event.
	seq  atomic.Int64
	role atomic.Int64
	rank atomic.Int64
	dur  atomic.Int64
	when atomic.Int64
	_    [cacheLine - 5*8]byte
}

// Stall is the watchdog extension of a Recorder, attached with
// Recorder.EnableStallWatchdog. Exported because the hotpath-purity
// checker sanctions blocks guarded by a *Stall nil-check exactly as it
// does *Recorder guards.
type Stall struct {
	thresholdNS int64
	mask        int64
	events      atomic.Int64
	dropped     atomic.Int64
	next        atomic.Int64
	count       atomic.Int64
	sumNS       atomic.Int64
	buckets     [HistBuckets]atomic.Int64
	ring        []stallSlot
}

// newStall builds a watchdog with the given threshold and ring size
// (rounded up to a power of two).
func newStall(threshold time.Duration, ring int) *Stall {
	if threshold <= 0 {
		threshold = DefaultStallThreshold
	}
	if ring <= 0 {
		ring = DefaultStallRing
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	return &Stall{thresholdNS: int64(threshold), mask: int64(size - 1), ring: make([]stallSlot, size)}
}

// Threshold returns the stall threshold.
func (st *Stall) Threshold() time.Duration { return time.Duration(st.thresholdNS) }

// check reports whether the wait that began at waitStart has crossed
// the stall threshold, emitting the detection event when it has.
// Called from inside a Recorder instrumentation guard.
func (st *Stall) check(role Role, rank int64, waitStart time.Time) bool {
	return st.checkWaited(role, rank, int64(time.Since(waitStart)))
}

// checkWaited is check for a wait that has lasted d nanoseconds so far.
func (st *Stall) checkWaited(role Role, rank, d int64) bool {
	if d < st.thresholdNS {
		return false
	}
	st.emit(role, rank, d)
	return true
}

// complete records the final duration of a finished wait: stalled
// waits land in the duration histogram, and episodes that slipped past
// the in-loop checks (reported=false) emit their event now.
func (st *Stall) complete(role Role, rank, ns int64, reported bool) {
	if ns < st.thresholdNS {
		return
	}
	st.count.Add(1)
	st.sumNS.Add(ns)
	st.buckets[bucketOf(ns)].Add(1)
	if !reported {
		st.emit(role, rank, ns)
	}
}

// emit appends one event to the ring. Writers never block: the cursor
// is claimed with one fetch-and-add and the slot with one CAS; a slot
// still owned by a slower writer drops the event (counted) instead of
// waiting, keeping the ring lock-free for every writer.
func (st *Stall) emit(role Role, rank, durNS int64) {
	st.events.Add(1)
	i := (st.next.Add(1) - 1) & st.mask
	s := &st.ring[i]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		st.dropped.Add(1)
		return
	}
	s.role.Store(int64(role))
	s.rank.Store(rank)
	s.dur.Store(durNS)
	s.when.Store(time.Now().UnixNano())
	s.seq.Store(seq + 2)
}

// recent returns up to max events, newest first. Slots mid-write or
// torn (seq changed during the copy) are skipped — the ring favours
// writer progress over reader completeness.
func (st *Stall) recent(max int) []StallEvent {
	if max <= 0 || max > len(st.ring) {
		max = len(st.ring)
	}
	written := st.next.Load()
	if written == 0 {
		return nil
	}
	out := make([]StallEvent, 0, max)
	//ffq:ignore spin-backoff bounded ring scan: one pass over len(ring) slots, torn slots are skipped rather than retried
	for i := int64(0); i < int64(len(st.ring)) && len(out) < max; i++ {
		s := &st.ring[(written-1-i)&st.mask]
		seq := s.seq.Load()
		if seq&1 != 0 {
			continue
		}
		ev := StallEvent{
			Role:       Role(s.role.Load()),
			Rank:       s.rank.Load(),
			DurationNS: s.dur.Load(),
			UnixNano:   s.when.Load(),
		}
		if s.seq.Load() != seq || ev.UnixNano == 0 {
			continue
		}
		out = append(out, ev)
	}
	return out
}
