package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestStallDefaults checks the zero-config watchdog parameters.
func TestStallDefaults(t *testing.T) {
	st := newStall(0, 0)
	if st.Threshold() != DefaultStallThreshold {
		t.Fatalf("threshold = %v", st.Threshold())
	}
	if len(st.ring) != DefaultStallRing {
		t.Fatalf("ring = %d", len(st.ring))
	}
	// Ring sizes round up to a power of two.
	if st = newStall(time.Second, 5); len(st.ring) != 8 {
		t.Fatalf("ring(5) = %d, want 8", len(st.ring))
	}
}

// TestStallCheckAndComplete walks one episode through both detection
// paths: an in-loop check past the threshold emits exactly once, and
// completion records the histogram without double-emitting; an episode
// that slipped past every check emits at completion instead.
func TestStallCheckAndComplete(t *testing.T) {
	st := newStall(time.Microsecond, 8)
	// A fresh wait is given as its duration: timing it with the clock
	// would let a preemption between the two reads cross the 1us
	// threshold.
	if st.checkWaited(RoleConsumer, 7, 0) || st.checkWaited(RoleConsumer, 7, int64(time.Microsecond)-1) {
		t.Fatal("fresh wait reported as stall")
	}
	old := time.Now().Add(-time.Millisecond)
	if !st.check(RoleConsumer, 7, old) {
		t.Fatal("1ms wait under a 1us threshold not detected")
	}
	if st.events.Load() != 1 {
		t.Fatalf("events = %d", st.events.Load())
	}
	st.complete(RoleConsumer, 7, int64(time.Millisecond), true)
	if st.events.Load() != 1 {
		t.Fatal("reported episode emitted again at completion")
	}
	if st.count.Load() != 1 || st.sumNS.Load() != int64(time.Millisecond) {
		t.Fatalf("histogram: count=%d sum=%d", st.count.Load(), st.sumNS.Load())
	}
	// Unreported episode: completion is the only emission point.
	st.complete(RoleProducer, -1, int64(2*time.Millisecond), false)
	if st.events.Load() != 2 {
		t.Fatalf("events = %d after unreported completion", st.events.Load())
	}
	// Sub-threshold completions leave no trace.
	st.complete(RoleProducer, -1, 10, false)
	if st.events.Load() != 2 || st.count.Load() != 2 {
		t.Fatal("sub-threshold completion recorded")
	}

	evs := st.recent(0)
	if len(evs) != 2 {
		t.Fatalf("recent = %d events", len(evs))
	}
	// Newest first.
	if evs[0].Role != RoleProducer || evs[0].Rank != -1 || evs[1].Role != RoleConsumer || evs[1].Rank != 7 {
		t.Fatalf("recent order/content wrong: %+v", evs)
	}
	if evs[0].UnixNano == 0 || evs[0].DurationNS != int64(2*time.Millisecond) {
		t.Fatalf("event fields: %+v", evs[0])
	}
}

// TestStallRingWrap overflows a small ring and checks the counter keeps
// the true total while recent returns only the newest window.
func TestStallRingWrap(t *testing.T) {
	st := newStall(time.Nanosecond, 4)
	for i := 0; i < 10; i++ {
		st.emit(RoleConsumer, int64(i), int64(i+1))
	}
	if st.events.Load() != 10 {
		t.Fatalf("events = %d", st.events.Load())
	}
	evs := st.recent(0)
	if len(evs) != 4 {
		t.Fatalf("recent = %d, want full ring of 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(9 - i); ev.Rank != want {
			t.Fatalf("recent[%d].Rank = %d, want %d", i, ev.Rank, want)
		}
	}
	if got := st.recent(2); len(got) != 2 || got[0].Rank != 9 {
		t.Fatalf("recent(2) = %+v", got)
	}
}

// TestStallEventJSON round-trips the event encoding, including the
// textual role names.
func TestStallEventJSON(t *testing.T) {
	in := StallEvent{Role: RoleProducer, Rank: 42, DurationNS: 1e6, UnixNano: 123}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out StallEvent
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v -> %s -> %+v", in, b, out)
	}
}

// TestStallConcurrentEmitRecent races writers against readers: the ring
// must stay torn-read free (the race detector checks the seqlock
// protocol's memory claims, the seq validation its logic).
func TestStallConcurrentEmitRecent(t *testing.T) {
	st := newStall(time.Nanosecond, 8)
	const writers = 4
	const per = 5_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range st.recent(0) {
					if ev.UnixNano == 0 {
						t.Error("torn read: zero timestamp escaped validation")
						return
					}
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				st.emit(RoleConsumer, int64(w), int64(i+1))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := st.events.Load(); got != writers*per {
		t.Fatalf("events = %d, want %d", got, writers*per)
	}
	if st.dropped.Load() > st.events.Load() {
		t.Fatal("dropped exceeds emitted")
	}
}

// TestRecorderStallSnapshot checks the Recorder-level plumbing: the
// snapshot carries the armed threshold, counters, histogram, and the
// recent-event tail; Sub yields window deltas.
func TestRecorderStallSnapshot(t *testing.T) {
	r := NewRecorder().EnableStallWatchdog(time.Microsecond, 8)
	start := time.Now().Add(-time.Millisecond)
	reported := false
	for spins := 0; spins <= stallCheckMask+1; spins++ {
		reported = r.StallCheck(RoleConsumer, 3, start, spins, reported)
	}
	if !reported {
		t.Fatal("StallCheck never fired on a clock-read iteration")
	}
	r.EndWait(RoleConsumer, 3, time.Millisecond, reported)
	s := r.Snapshot()
	if s.StallThresholdNS != int64(time.Microsecond) {
		t.Fatalf("threshold = %d", s.StallThresholdNS)
	}
	if s.StallEvents != 1 || s.StallCount != 1 || s.StallSumNS != int64(time.Millisecond) {
		t.Fatalf("stall counters: %+v", s)
	}
	if len(s.RecentStalls) != 1 || s.RecentStalls[0].Rank != 3 {
		t.Fatalf("recent stalls: %+v", s.RecentStalls)
	}
	if s.MeanStall() != time.Millisecond {
		t.Fatalf("mean stall = %v", s.MeanStall())
	}

	prev := s
	r.EndWait(RoleProducer, -1, 2*time.Millisecond, false)
	d := r.Snapshot().Sub(prev)
	if d.StallEvents != 1 || d.StallCount != 1 || d.StallSumNS != int64(2*time.Millisecond) {
		t.Fatalf("stall delta: events=%d count=%d sum=%d", d.StallEvents, d.StallCount, d.StallSumNS)
	}
}

// TestRecorderOpLatency checks the per-op extension end to end at the
// Recorder level: OpStart reads the clock only when armed, and the
// Done hooks land in the right histogram.
func TestRecorderOpLatency(t *testing.T) {
	bare := NewRecorder()
	if !bare.OpStart().IsZero() {
		t.Fatal("OpStart read the clock without the latency extension")
	}
	bare.EnqueueDone(time.Time{})
	bare.DequeueDone(time.Time{})
	if s := bare.Snapshot(); s.EnqLatency != nil || s.DeqLatency != nil {
		t.Fatal("latency snapshots on a bare recorder")
	}

	r := NewRecorder().EnableOpLatency()
	for i := 0; i < 10; i++ {
		r.EnqueueDone(r.OpStart())
	}
	r.DequeueDone(r.OpStart())
	s := r.Snapshot()
	if s.EnqLatency == nil || s.EnqLatency.Count != 10 {
		t.Fatalf("enq latency: %v", s.EnqLatency)
	}
	if s.DeqLatency == nil || s.DeqLatency.Count != 1 {
		t.Fatalf("deq latency: %v", s.DeqLatency)
	}
	if s.EnqLatency.MaxNS <= 0 {
		t.Fatal("recorded op latency not positive")
	}
}
