package core

import (
	"time"

	"ffq/internal/obs"
)

// Batch operations on the bounded queues. The consumer side claims a
// contiguous run: one head.Add(k) claims k consecutive ranks,
// amortizing the only consumer-side atomic read-modify-write across
// the whole batch. The rank space has gaps (a producer skips ranks
// whose cell is still occupied), so a claimed run may resolve to fewer
// than k items: ranks that were gap-skipped simply contribute nothing
// and the batch comes back partial with ok=true. ok=false means the
// queue is closed and the run hit ranks beyond the final tail (closed
// and drained); the n items before that point are still delivered.

// EnqueueBatch inserts every element of vs in order, equivalent to a
// loop of Enqueue but publishing the tail index once per batch instead
// of once per item (consumers handshake on the cells' rank fields, so
// deferring the tail store hides nothing from them; only the
// tail-bounded TryDequeueBatch sees items a batch late, which merely
// understates availability). Must be called by the single producer
// goroutine only. With WithOpLatency the whole batch is one sample in
// the enqueue histogram — batching amortizes the clock reads exactly
// like it amortizes the tail publication.
//
//ffq:hotpath
func (q *SPMC[T]) EnqueueBatch(vs []T) {
	if len(vs) == 0 {
		return
	}
	t := q.tail.Load()
	skips := 0
	stalled := false
	var waitStart, opStart time.Time
	if q.rec != nil {
		opStart = q.rec.OpStart()
	}
	for i := 0; i < len(vs); {
		c := &q.cells[q.ix.Phys(t)]
		if c.rank.Load() >= 0 {
			// Occupied by an undequeued item: skip the rank and announce
			// the gap, exactly as Enqueue. The tail store stays on this
			// path so closed-queue dead-rank checks see skipped ranks.
			c.gap.Store(t)
			t++
			q.tail.Store(t)
			q.gaps.Add(1)
			skips++
			if q.rec != nil {
				if skips == 1 {
					waitStart = time.Now()
				}
				q.rec.GapCreated()
				q.rec.FullSpin()
				stalled = q.rec.StallCheck(obs.RoleProducer, t, waitStart, skips, stalled)
				if backoff(skips<<4, q.yieldTh) {
					q.rec.ProducerYield()
				}
			} else {
				backoff(skips<<4, q.yieldTh)
			}
			continue
		}
		c.data = vs[i]
		c.rank.Store(t)
		t++
		i++
	}
	q.tail.Store(t)
	if q.rec != nil {
		q.rec.EnqueueN(len(vs))
		q.rec.ObserveBatch(len(vs))
		if skips > 0 {
			q.rec.EndWait(obs.RoleProducer, t, time.Since(waitStart), stalled)
		}
		q.rec.EnqueueDone(opStart)
	}
}

// DequeueBatch removes up to len(dst) items in one rank reservation: a
// single fetch-and-add claims the contiguous run [head, head+k). Every
// rank of the run is resolved in order — published ranks deliver their
// item (blocking for the producer exactly like Dequeue), gap-skipped
// ranks deliver nothing, so n < len(dst) with ok=true means the run
// crossed gaps. ok=false means the queue is closed and the run
// reached ranks beyond the final tail; the n items claimed before
// that point are still returned. Safe for any number of
// concurrent consumers, but a batch claims its ranks immediately: a
// batch blocking on a slow producer delays later-ranked consumers.
//
//ffq:hotpath
func (q *SPMC[T]) DequeueBatch(dst []T) (n int, ok bool) {
	k := int64(len(dst))
	if k == 0 {
		return 0, true
	}
	start := q.head.Add(k) - k
	waited := false
	stalled := false
	var waitStart, opStart time.Time
	if q.rec != nil {
		opStart = q.rec.OpStart()
	}
	for r := start; r < start+k; r++ {
		c := &q.cells[q.ix.Phys(r)]
		spins := 0
		for {
			if c.rank.Load() == r {
				// Our rank: consume exactly as Dequeue does.
				dst[n] = c.data
				var zero T
				c.data = zero
				c.rank.Store(freeRank)
				n++
				break
			}
			if c.gap.Load() >= r && c.rank.Load() != r {
				// The producer skipped this rank; the run shrinks by one
				// (no re-acquisition: the claim is already contiguous).
				if q.rec != nil {
					q.rec.GapSkipped()
				}
				break
			}
			if q.closed.Load() && r >= q.tail.Load() {
				// Dead rank: the final tail is behind it, so every
				// remaining rank of the run is dead too.
				q.finishBatch(n, waited, waitStart, stalled, opStart)
				return n, false
			}
			spins++
			if q.rec != nil {
				if !waited {
					waited = true
					waitStart = time.Now()
				}
				q.rec.EmptySpin()
				stalled = q.rec.StallCheck(obs.RoleConsumer, r, waitStart, spins, stalled)
				if backoff(spins, q.yieldTh) {
					q.rec.ConsumerYield()
				}
			} else {
				backoff(spins, q.yieldTh)
			}
		}
	}
	q.finishBatch(n, waited, waitStart, stalled, opStart)
	return n, true
}

// finishBatch records the consumer-side batch counters; a batch that
// delivered items is one sample in the dequeue-latency histogram.
//
//ffq:hotpath
func (q *SPMC[T]) finishBatch(n int, waited bool, waitStart time.Time, stalled bool, opStart time.Time) {
	if q.rec != nil {
		q.rec.DequeueN(n)
		q.rec.ObserveBatch(n)
		if waited {
			q.rec.EndWait(obs.RoleConsumer, -1, time.Since(waitStart), stalled)
		}
		if n > 0 {
			q.rec.DequeueDone(opStart)
		}
	}
}

// TryDequeueBatch removes up to len(dst) ready items without blocking,
// claiming a whole resolved run with one compare-and-swap. The
// producer stores the tail index only after the cell at each prior
// rank is resolved (published or gap-marked), so every rank below the
// loaded tail is settled: the CAS head -> head+m claims m ranks that
// can be consumed without any waiting, and a failed CAS leaves no
// claim behind. Returns the number of items delivered; 0 means the
// queue was empty (nothing below the tail remained unclaimed). A run
// that resolves to gaps only is retried rather than reported as empty:
// a producer that circled a full queue leaves long gap runs between
// the head and its items, and a 0 return here would make callers back
// off exactly when they must chase the head through those gaps at full
// speed. Safe for any number of concurrent consumers, mixed freely
// with Dequeue, TryDequeue and DequeueBatch. This is the lane-scan
// primitive of the sharded MPMC queue: a consumer probing an idle lane
// must not park a rank there the way Dequeue's unconditional
// fetch-and-add would.
//
//ffq:hotpath
func (q *SPMC[T]) TryDequeueBatch(dst []T) int {
	k := int64(len(dst))
	if k == 0 {
		return 0
	}
	var opStart time.Time
	if q.rec != nil {
		opStart = q.rec.OpStart()
	}
	//ffq:ignore spin-backoff every iteration advances head past claimed ranks (ours or another consumer's), which is global progress
	for {
		h := q.head.Load()
		avail := q.tail.Load() - h
		if avail <= 0 {
			return 0
		}
		m := avail
		if k < m {
			m = k
		}
		if !q.head.CompareAndSwap(h, h+m) {
			continue
		}
		n := 0
		//ffq:ignore spin-backoff bounded walk over the m claimed ranks; every rank below tail is already resolved, so no iteration waits
		for r := h; r < h+m; r++ {
			c := &q.cells[q.ix.Phys(r)]
			if c.rank.Load() == r {
				dst[n] = c.data
				var zero T
				c.data = zero
				c.rank.Store(freeRank)
				n++
				continue
			}
			// Resolved as a gap before the tail passed it (the producer
			// never rewrites a published cell, and only this claim may
			// consume rank r, so a non-matching rank can only mean the
			// rank was skipped).
			if q.rec != nil {
				q.rec.GapSkipped()
			}
		}
		if n > 0 {
			if q.rec != nil {
				q.rec.DequeueN(n)
				q.rec.ObserveBatch(n)
				q.rec.DequeueDone(opStart)
			}
			return n
		}
		// The whole run was gaps: keep claiming toward the items behind
		// them instead of reporting empty.
	}
}

// EnqueueBatch inserts every element of vs, claiming len(vs)
// contiguous ranks with a single tail.Add and publishing each with the
// usual per-cell protocol. Ranks that die under the claim (a gap
// announcement overtook them — only possible when the queue runs full)
// leave their items pending, and the leftover suffix is re-claimed as
// a new contiguous run, so per-producer FIFO order is preserved; only
// contiguity in the global rank order is lost, and only under a full
// queue. Safe for any number of concurrent producers.
//
//ffq:hotpath
func (q *MPMC[T]) EnqueueBatch(vs []T) {
	if len(vs) == 0 {
		return
	}
	next := 0 // vs[:next] is published; vs[next:] still needs a rank
	rounds := 0
	waited := false
	stalled := false
	var waitStart, opStart time.Time
	if q.rec != nil {
		opStart = q.rec.OpStart()
	}
	for next < len(vs) {
		if rounds > 0 {
			// The previous run lost ranks to gaps: the queue is full or
			// nearly so. Back off before burning more ranks (see Enqueue).
			if q.rec != nil {
				if !waited {
					waited = true
					waitStart = time.Now()
				}
				q.rec.FullSpin()
				stalled = q.rec.StallCheck(obs.RoleProducer, -1, waitStart, rounds, stalled)
				if backoff(rounds<<4, q.yieldTh) {
					q.rec.ProducerYield()
				}
			} else {
				backoff(rounds<<4, q.yieldTh)
			}
		}
		k := int64(len(vs) - next)
		start := q.tail.Add(k) - k
	ranks:
		for r := start; r < start+k; r++ {
			c := &q.cells[q.ix.Phys(r)]
			my := q.lapOf(r)
			spins := 0
			for {
				s := c.state.Load()
				r32, g32 := mpmcUnpack(s)
				if g32 >= my {
					// Rank r is dead; vs[next] stays pending and the next
					// rank of the run tries to take it (order preserved:
					// pending items only ever move to later ranks).
					continue ranks
				}
				switch {
				case r32 == mpmcLapFree:
					if c.state.CompareAndSwap(s, mpmcPack(mpmcLapClaim, g32)) {
						c.data = vs[next]
						c.state.Store(mpmcPack(my, g32))
						next++
						continue ranks
					}
				case r32 == mpmcLapClaim:
					// Another producer is mid-publish on an older rank.
					spins++
					if q.rec != nil {
						if !waited {
							waited = true
							waitStart = time.Now()
						}
						q.rec.FullSpin()
						stalled = q.rec.StallCheck(obs.RoleProducer, r, waitStart, spins, stalled)
						if backoff(spins, q.yieldTh) {
							q.rec.ProducerYield()
						}
					} else {
						backoff(spins, q.yieldTh)
					}
				default:
					// Occupied: announce the gap, killing our own rank
					// (Algorithm 2, line 8); the g32 >= my re-check exits.
					if c.state.CompareAndSwap(s, mpmcPack(r32, my)) {
						q.gaps.Add(1)
						if q.rec != nil {
							q.rec.GapCreated()
						}
					}
				}
			}
		}
		rounds++
	}
	if q.rec != nil {
		q.rec.EnqueueN(len(vs))
		q.rec.ObserveBatch(len(vs))
		if waited {
			q.rec.EndWait(obs.RoleProducer, -1, time.Since(waitStart), stalled)
		}
		q.rec.EnqueueDone(opStart)
	}
}

// DequeueBatch removes up to len(dst) items in one rank reservation;
// the contract is SPMC.DequeueBatch's: one head.Add claims the run,
// gap-skipped ranks shrink the batch (ok=true), and ok=false means
// closed and drained with the n prior items still delivered. Safe for
// any number of concurrent consumers.
//
//ffq:hotpath
func (q *MPMC[T]) DequeueBatch(dst []T) (n int, ok bool) {
	k := int64(len(dst))
	if k == 0 {
		return 0, true
	}
	start := q.head.Add(k) - k
	waited := false
	stalled := false
	var waitStart, opStart time.Time
	if q.rec != nil {
		opStart = q.rec.OpStart()
	}
	for r := start; r < start+k; r++ {
		c := &q.cells[q.ix.Phys(r)]
		my := q.lapOf(r)
		spins := 0
		for {
			s := c.state.Load()
			r32, g32 := mpmcUnpack(s)
			if r32 == my {
				// Our item: read, then release preserving the gap half
				// (a producer may be announcing a gap concurrently).
				v := c.data
				var zero T
				c.data = zero
				//ffq:ignore spin-backoff a failed release CAS means a producer just wrote the gap half; interference is bounded by one concurrent gap announcement
				for !c.state.CompareAndSwap(s, mpmcPack(mpmcLapFree, g32)) {
					s = c.state.Load()
					_, g32 = mpmcUnpack(s)
				}
				dst[n] = v
				n++
				break
			}
			if g32 >= my {
				// Skipped rank: the run shrinks by one.
				if q.rec != nil {
					q.rec.GapSkipped()
				}
				break
			}
			if q.closed.Load() && r >= q.tail.Load() {
				q.finishBatch(n, waited, waitStart, stalled, opStart)
				return n, false
			}
			spins++
			if q.rec != nil {
				if !waited {
					waited = true
					waitStart = time.Now()
				}
				q.rec.EmptySpin()
				stalled = q.rec.StallCheck(obs.RoleConsumer, r, waitStart, spins, stalled)
				if backoff(spins, q.yieldTh) {
					q.rec.ConsumerYield()
				}
			} else {
				backoff(spins, q.yieldTh)
			}
		}
	}
	q.finishBatch(n, waited, waitStart, stalled, opStart)
	return n, true
}

// finishBatch records the consumer-side batch counters; a batch that
// delivered items is one sample in the dequeue-latency histogram.
//
//ffq:hotpath
func (q *MPMC[T]) finishBatch(n int, waited bool, waitStart time.Time, stalled bool, opStart time.Time) {
	if q.rec != nil {
		q.rec.DequeueN(n)
		q.rec.ObserveBatch(n)
		if waited {
			q.rec.EndWait(obs.RoleConsumer, -1, time.Since(waitStart), stalled)
		}
		if n > 0 {
			q.rec.DequeueDone(opStart)
		}
	}
}
