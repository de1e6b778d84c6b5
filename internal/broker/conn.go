package broker

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ffq"
	"ffq/internal/wire"
)

// wireError is a protocol violation with a typed wire code: readLoop
// encodes it as a structured ERR frame (code + detail + text) so
// clients can react programmatically — a follower hitting
// ECodeTruncated resyncs to the detail offset instead of giving up.
type wireError struct {
	code   uint16
	detail uint64
	msg    string
}

func (e *wireError) Error() string { return e.msg }

// staged is one validated PRODUCE batch, cloned out of the reader's
// frame buffer into one owned copy and parked in the connection's
// ingress queue until the pump ingests it into the topic. The lanes
// carry sub-slices of that copy, so a message still in a lane pins its
// whole frame body. stamp is the frame's decode time (zero when the
// topic has no latency histogram).
type staged struct {
	t     *topic
	batch wire.Batch
	stamp int64
}

// stagingSlots is the ingress queue's capacity in PRODUCE frames: a
// client's whole default publish window of single-message frames (see
// "Staging liveness" in the package doc).
const stagingSlots = 1024

// conn is one accepted connection: reader + ingress SPSC + pump on the
// produce side, any number of subscriptions on the consume side, all
// sharing one serialized writer.
type conn struct {
	b  *Broker
	nc net.Conn
	id uint64

	// ingress stages PRODUCE batches from the reader (single producer)
	// for the pump (single consumer). Its bound is the backpressure:
	// a full queue stalls the reader, which stalls the socket.
	ingress *ffq.SPSC[staged]
	// wake signals the pump that the reader staged a batch (capacity 1;
	// a dropped send means a wakeup is already pending). The reader
	// closes it when it stops staging.
	wake chan struct{}

	// wmu serializes the writer between the pump (ACKs), subscriptions
	// (DELIVERs) and the reader (PONGs, ERRs); wbuf is the shared
	// encode buffer, reused so steady-state writes do not allocate.
	wmu  sync.Mutex
	wbuf wire.Buffer

	// dead flips when either side of the connection fails; every writer
	// checks it and every delivery loop exits on it.
	dead atomic.Bool

	// subs is the reader goroutine's subscription index (topic display
	// name → sub; one subscription per topic partition). Only the
	// reader touches it.
	subs map[string]*sub

	// lastTopic caches the previous PRODUCE frame's topic so the common
	// single-topic producer skips the broker map lookup.
	lastTopic *topic
}

func newConn(b *Broker, nc net.Conn) *conn {
	// NewSPSC only rejects capacities that are not powers of two >= 2.
	ingress, _ := ffq.NewSPSC[staged](stagingSlots)
	return &conn{
		b:       b,
		nc:      nc,
		id:      b.connID.Add(1),
		ingress: ingress,
		wake:    make(chan struct{}, 1),
		subs:    map[string]*sub{},
	}
}

// readLoop decodes frames until the peer goes away or a protocol
// error occurs. Shutdown's read-deadline wake does not end the loop:
// it switches it to drain mode, where PRODUCE is cut off (the pump
// must quiesce so topics can close) but CREDIT and PING keep flowing —
// the drain needs consumers replenishing their windows.
func (c *conn) readLoop() {
	defer c.b.readWG.Done()
	r := wire.NewReader(c.nc)
	drainMode := false
	//ffq:ignore spin-backoff not a spin loop: every iteration blocks in the socket read; the atomic load only classifies the error path
	for {
		f, err := r.Next()
		if err != nil {
			if !drainMode && c.b.closing.Load() && isTimeout(err) {
				// Shutdown's produce cutoff: stop staging so the pump
				// can exit, then keep reading without a deadline. The
				// socket close at the end of Shutdown ends the loop.
				drainMode = true
				close(c.wake)
				c.nc.SetReadDeadline(time.Time{})
				continue
			}
			break
		}
		if err := c.handleFrame(f, drainMode); err != nil {
			c.b.m.ProtoErrors.Add(1)
			var we *wireError
			if errors.As(err, &we) {
				c.writeErrCode(we.code, we.detail, we.msg)
			} else {
				c.writeErrCode(wire.ECodeGeneric, 0, err.Error())
			}
			break
		}
	}
	if !drainMode {
		// Hand the pump its end-of-input: closing wake makes it drain
		// what is staged and exit.
		close(c.wake)
		c.teardown()
		return
	}
	// In drain mode Shutdown owns the connection's lifecycle — but a
	// read error here means the peer is really gone, and its delivery
	// loops must not keep the drain waiting on credit that can never
	// arrive.
	c.dead.Store(true)
}

// handleFrame dispatches one decoded frame. A returned error is a
// protocol violation and terminal for the connection.
func (c *conn) handleFrame(f wire.Frame, drainMode bool) error {
	switch f.Type {
	case wire.TProduce:
		p, err := wire.ParseProduce(f)
		if err != nil {
			return err
		}
		if drainMode {
			// Past the produce cutoff: the frame is discarded and never
			// acknowledged — unacknowledged publishes were never
			// accepted, which is exactly what ACKs mean.
			c.b.m.MsgsDropped.Add(int64(p.N))
			return nil
		}
		t := c.lastTopic
		if t == nil || p.Part != t.part || !bytes.Equal(p.Topic, t.nameBytes) {
			// Ownership is static config, so checking once per cache miss
			// covers every frame the cache then serves.
			name := string(p.Topic)
			if err := c.b.checkPart(name, p.Part, true); err != nil {
				return err
			}
			t, err = c.b.getTopic(name, p.Part)
			if err != nil {
				return err
			}
			c.lastTopic = t
		}
		st := staged{t: t, batch: p.Batch.Clone()}
		if t.lat != nil {
			st.stamp = time.Now().UnixNano()
		}
		c.ingress.Enqueue(st)
		select {
		case c.wake <- struct{}{}:
		default: // a wakeup is already pending
		}
		c.b.m.MsgsIn.Add(int64(st.batch.N))
		c.b.m.ProduceFrames.Add(1)
		return nil

	case wire.TConsume:
		if f.Flags&wire.FlagOffset != 0 {
			return c.handleConsumeFrom(f)
		}
		topicName, part, credit, err := wire.ParseConsume(f)
		if err != nil {
			return err
		}
		name := string(topicName)
		if err := c.b.checkPart(name, part, true); err != nil {
			return err
		}
		t, err := c.b.getTopic(name, part)
		if err != nil {
			return err
		}
		if _, dup := c.subs[t.display]; dup {
			return errors.New("broker: duplicate subscription to " + t.display)
		}
		s := &sub{c: c, t: t}
		s.credit.Store(int64(credit))
		c.subs[t.display] = s
		t.mu.Lock()
		t.subs[s] = struct{}{}
		t.mu.Unlock()
		c.b.deliverWG.Add(1)
		go s.run()
		return nil

	case wire.TAck:
		// The only client→broker ACK is the durable cursor commit.
		if f.Flags&wire.FlagOffset == 0 {
			return errors.New("broker: unexpected ACK from client")
		}
		topicName, part, off, err := wire.ParseAck(f)
		if err != nil {
			return err
		}
		s, ok := c.subs[topicKey{string(topicName), part}.display()]
		if !ok || !s.replay {
			return errors.New("broker: cursor commit without a replay subscription")
		}
		if s.group == "" {
			return errors.New("broker: cursor commit without a consumer group")
		}
		if err := s.t.cursors.Commit(s.group, off); err != nil {
			return err
		}
		return nil

	case wire.TOffsets:
		topicName, part, group, err := wire.ParseOffsetsReq(f)
		if err != nil {
			return err
		}
		name := string(topicName)
		// Offset queries are reads: replicas answer for partitions they
		// hold, reporting the range their follower has copied so far.
		if err := c.b.checkPart(name, part, false); err != nil {
			return err
		}
		t, err := c.b.getTopic(name, part)
		if err != nil {
			return err
		}
		if t.log == nil {
			return errors.New("broker: OFFSETS on a non-durable broker (no data dir)")
		}
		st := t.log.Stats()
		cursor := uint64(wire.OffsetCursor)
		if len(group) > 0 {
			if off, ok := t.cursors.Get(string(group)); ok {
				cursor = off
			}
		}
		c.writeOffsetsResp(t.nameBytes, t.part, st.Oldest, st.Next, cursor)
		return nil

	case wire.TCredit:
		topicName, part, n, err := wire.ParseCredit(f)
		if err != nil {
			return err
		}
		s, ok := c.subs[topicKey{string(topicName), part}.display()]
		if !ok {
			return errors.New("broker: CREDIT for unknown subscription")
		}
		s.credit.Add(int64(n))
		return nil

	case wire.TMeta:
		if err := wire.ParseMetaReq(f); err != nil {
			return err
		}
		c.writeMetaResp(c.b.meta())
		return nil

	case wire.TPing:
		token, err := wire.ParsePing(f)
		if err != nil {
			return err
		}
		c.writePing(token)
		return nil

	default:
		return errors.New("broker: unexpected frame type from client")
	}
}

// handleConsumeFrom opens a replay subscription: a log follower that
// streams the topic's WAL from the requested offset (or the consumer
// group's persisted cursor) and keeps following the log at the head.
func (c *conn) handleConsumeFrom(f wire.Frame) error {
	cf, err := wire.ParseConsumeFrom(f)
	if err != nil {
		return err
	}
	name := string(cf.Topic)
	// Replay reads are served by owners and replicas alike — a replica
	// streams whatever its follower has copied, which is how the
	// replication chain itself rides this path.
	if err := c.b.checkPart(name, cf.Part, false); err != nil {
		return err
	}
	t, err := c.b.getTopic(name, cf.Part)
	if err != nil {
		return err
	}
	if _, dup := c.subs[t.display]; dup {
		return errors.New("broker: duplicate subscription to " + t.display)
	}
	if t.log == nil {
		return errors.New("broker: replay subscription on a non-durable broker (no data dir)")
	}
	s := &sub{c: c, t: t, replay: true, group: string(cf.Group), from: cf.From, strict: cf.Strict}
	s.credit.Store(int64(cf.Credit))
	c.subs[t.display] = s
	t.mu.Lock()
	t.subs[s] = struct{}{}
	t.mu.Unlock()
	c.b.deliverWG.Add(1)
	go s.runReplay()
	return nil
}

// pumpLoop ingests staged batches into their topics: drain the
// ingress queue until it is empty (walking each batch into a reused
// payload scratch for topic.ingest), send one cumulative ACK per
// touched topic, park on wake. The reader stages nothing after closing
// wake, so the last drain sees everything staged, which makes Shutdown
// lossless for accepted PRODUCE frames. The pump holds one lane per
// topic (nil after a failed acquisition: ingest then uses the shared
// fallback lane) and releases them when it exits. A batch the log
// rejects is never acknowledged: the pump sends ERR and closes the
// connection.
func (c *conn) pumpLoop() {
	defer c.b.pumpWG.Done()
	seqs := map[*topic]uint64{}
	touched := make([]*topic, 0, 4)
	lanes := map[*topic]*ffq.ProducerHandle[msg]{}
	defer func() {
		for _, h := range lanes {
			if h != nil {
				h.Release()
			}
		}
	}()
	var payloads [][]byte
	var scratch []msg
	for open := true; ; {
		for {
			st, ok := c.ingress.TryDequeue()
			if !ok {
				break
			}
			payloads = payloads[:0]
			for m, ok := st.batch.Next(); ok; m, ok = st.batch.Next() {
				payloads = append(payloads, m)
			}
			h, seen := lanes[st.t]
			if !seen {
				h, _ = st.t.q.AcquireProducer()
				lanes[st.t] = h
			}
			var err error
			if scratch, err = st.t.ingest(h, payloads, st.stamp, scratch); err != nil {
				// Report the append failure and close the socket: the
				// reader's next read fails and tears the connection
				// down, so the client's publishes fail instead of
				// waiting forever on ACKs that never come.
				c.writeErrCode(wire.ECodeGeneric, 0, err.Error())
				c.dead.Store(true)
				c.nc.Close()
				continue
			}
			if !slices.Contains(touched, st.t) {
				touched = append(touched, st.t)
			}
			seqs[st.t] += uint64(len(payloads))
		}
		for _, t := range touched {
			c.writeAck(0, t.nameBytes, t.part, seqs[t])
			c.b.m.Acks.Add(1)
		}
		touched = touched[:0]
		if !open {
			return
		}
		_, open = <-c.wake
	}
}

// teardown tears a failed/closed connection down: deliveries stop,
// the broker forgets the connection, the socket closes. The pump keeps
// running until the staged backlog is flushed — those messages were
// accepted and belong to their topics.
func (c *conn) teardown() {
	c.dead.Store(true)
	c.b.mu.Lock()
	_, tracked := c.b.conns[c]
	delete(c.b.conns, c)
	c.b.mu.Unlock()
	if tracked {
		c.b.m.ConnsOpen.Add(-1)
	}
	c.nc.Close()
}

// ---- serialized writer ----

// writeDeliver sends one DELIVER frame; false means the connection
// died (the claimed messages are lost — delivery is at-most-once once
// claimed, exactly like an in-process consumer crashing mid-handoff).
func (c *conn) writeDeliver(topic []byte, part uint32, msgs [][]byte) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutProduce(wire.FlagDeliver, topic, part, msgs)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writeDeliverOffsets sends one replay DELIVER frame carrying the
// batch's base offset.
func (c *conn) writeDeliverOffsets(topic []byte, part uint32, base uint64, msgs [][]byte) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutDeliverOffsets(topic, part, base, msgs)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writeOffsetsResp answers an OFFSETS query.
func (c *conn) writeOffsetsResp(topic []byte, part uint32, oldest, next, cursor uint64) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutOffsetsResp(topic, part, oldest, next, cursor)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writeMetaResp answers a METADATA query.
func (c *conn) writeMetaResp(m wire.MetaResp) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutMetaResp(m)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writeAck sends a cumulative ACK (or, with wire.FlagEnd, the
// subscription end-of-stream marker).
func (c *conn) writeAck(flags byte, topic []byte, part uint32, seq uint64) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutAck(flags, topic, part, seq)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writePing answers a PING with its PONG.
func (c *conn) writePing(token uint64) bool {
	if c.dead.Load() {
		return false
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutPing(token, true)
	err := c.flushLocked()
	c.wmu.Unlock()
	return c.writeOutcome(err)
}

// writeErrCode reports a typed protocol error to the peer (best
// effort; the connection is torn down right after).
func (c *conn) writeErrCode(code uint16, detail uint64, msg string) {
	if c.dead.Load() {
		return
	}
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutErrCode(code, detail, msg)
	c.flushLocked()
	c.wmu.Unlock()
}

// flushLocked writes the encode buffer to the socket. Callers hold wmu.
func (c *conn) flushLocked() error {
	_, err := c.nc.Write(c.wbuf.Bytes())
	return err
}

// writeOutcome marks the connection dead on a write error.
func (c *conn) writeOutcome(err error) bool {
	if err != nil {
		c.dead.Store(true)
		return false
	}
	return true
}

// ---- subscriptions ----

// sub is one (connection, topic) subscription: a delivery goroutine
// that claims messages from the topic with TryDequeue, gated by the
// client-granted credit window. A replay sub instead follows the
// topic's write-ahead log (runReplay), observing every message rather
// than competing for them.
type sub struct {
	c      *conn
	t      *topic
	credit atomic.Int64
	// stop force-stops the delivery goroutine (Shutdown deadline).
	stop atomic.Bool

	// replay marks a log-follower subscription; from is its requested
	// start offset (wire.OffsetCursor = the group's cursor) and group
	// the consumer group its ACK+FlagOffset commits apply to. strict
	// (wire.FlagStrict) turns silent retention clamps into typed
	// ECodeTruncated errors — replication followers must copy an exact
	// offset chain and need to resync deliberately, never skip.
	replay bool
	group  string
	from   uint64
	strict bool
}

// run is the delivery loop. The non-blocking TryDequeueBatch claim is
// essential here: a subscription without credit (or facing an empty
// topic) must not claim a rank, or it would hold messages hostage from
// the other subscribers — the broker-scale version of the paper's
// abandoned-rank problem. Batching the claim turns one CAS per message
// into one CAS per contiguous resolved run per lane.
func (s *sub) run() {
	defer s.c.b.deliverWG.Done()
	defer s.unlink()
	batch := make([]msg, 0, s.c.b.opts.DeliverBatch)
	payloads := make([][]byte, 0, s.c.b.opts.DeliverBatch)
	spins := 0
	for {
		if s.stop.Load() || s.c.dead.Load() {
			return
		}
		// End-of-stream is checked before the credit gate: sending the
		// marker costs no credit, and a credit-starved subscription must
		// still terminate when the topic drains (Shutdown would
		// otherwise wait forever on a consumer that went quiet).
		if s.t.q.Closed() && s.t.q.Len() == 0 {
			// Drained: every message this topic will ever carry has
			// been claimed by someone.
			s.c.writeAck(wire.FlagEnd, s.t.nameBytes, s.t.part, 0)
			return
		}
		cr := s.credit.Load()
		if cr <= 0 {
			spins++
			idleWait(spins)
			continue
		}
		// One batched claim up to the credit window: each non-empty lane
		// contributes a contiguous per-producer run with a single CAS.
		batch = batch[:min(int(cr), cap(batch))]
		batch = batch[:s.t.q.TryDequeueBatch(batch)]
		if len(batch) == 0 {
			spins++
			idleWait(spins)
			continue
		}
		spins = 0
		s.credit.Add(int64(-len(batch)))
		payloads = payloads[:0]
		for _, m := range batch {
			payloads = append(payloads, m.payload)
		}
		if lat := s.t.lat; lat != nil {
			// One clock read per DELIVER frame covers the whole batch.
			now := time.Now().UnixNano()
			for _, m := range batch {
				lat.Record(now - m.ingressNS)
			}
		}
		if !s.c.writeDeliver(s.t.nameBytes, s.t.part, payloads) {
			return
		}
		s.c.b.m.MsgsOut.Add(int64(len(batch)))
		s.c.b.m.DeliverFrames.Add(1)
	}
}

// runReplay is the log-follower delivery loop. It reads the topic's
// WAL from the subscription's start offset, streams DELIVER+FlagOffset
// batches under the same credit window as live subscriptions, and at
// the head parks on the log's append notification — tailing the log
// is just replay that caught up. It ends with ACK+FlagEnd when the log
// is sealed (shutdown) and fully delivered.
func (s *sub) runReplay() {
	defer s.c.b.deliverWG.Done()
	defer s.unlink()
	from := s.from
	if from == wire.OffsetCursor {
		// Resume from the group's committed cursor; a group with no
		// cursor (or no group at all) starts at the log's oldest offset.
		from = 0
		if s.group != "" {
			if off, ok := s.t.cursors.Get(s.group); ok {
				from = off
			}
		}
	}
	// A strict follower (replication) requires the exact offset chain:
	// if retention already dropped the requested start, tell it where
	// the live log begins — detail carries the oldest retained offset —
	// so it can ResetTo and resync instead of silently skipping a gap.
	if s.strict {
		if oldest := s.t.log.OldestOffset(); from < oldest {
			s.c.writeErrCode(wire.ECodeTruncated, oldest,
				"broker: strict replay of "+s.t.display+" from a truncated offset")
			s.c.dead.Store(true)
			return
		}
	}
	want := from
	r := s.t.log.NewReader(from)
	defer r.Close()
	spins := 0
	for {
		if s.stop.Load() || s.c.dead.Load() {
			return
		}
		// Like the live loop, end-of-stream is checked before the credit
		// gate: a credit-starved follower that has already delivered the
		// whole sealed log must still terminate, or Shutdown's drain
		// would wait on it forever.
		if s.t.log.Sealed() && r.Offset() >= s.t.log.NextOffset() {
			s.c.writeAck(wire.FlagEnd, s.t.nameBytes, s.t.part, 0)
			return
		}
		cr := s.credit.Load()
		if cr <= 0 {
			spins++
			idleWait(spins)
			continue
		}
		max := int(cr)
		if max > s.c.b.opts.DeliverBatch {
			max = s.c.b.opts.DeliverBatch
		}
		base, msgs, err := r.Next(max)
		if err != nil {
			// Corrupt retained log body: surface it instead of skipping
			// silently; the client sees ERR and the stream ends.
			s.c.writeErrCode(wire.ECodeGeneric, 0, "broker: replay failed: "+err.Error())
			s.c.dead.Store(true)
			return
		}
		if s.strict && len(msgs) > 0 && base != want {
			// Retention overtook the reader mid-stream (or the follower
			// asked past the head and the chain restarted lower): the
			// reader clamped, which a strict follower must not absorb.
			s.c.writeErrCode(wire.ECodeTruncated, base,
				"broker: strict replay of "+s.t.display+" hit a retention gap")
			s.c.dead.Store(true)
			return
		}
		if len(msgs) == 0 {
			if s.t.log.Sealed() {
				// Shutdown sealed the log and we delivered everything in
				// it: clean end of stream.
				s.c.writeAck(wire.FlagEnd, s.t.nameBytes, s.t.part, 0)
				return
			}
			// Caught up with the head: park until the next append (or
			// seal). The timeout bounds how long a dead connection's
			// follower lingers when the topic goes quiet.
			select {
			case <-s.t.log.WaitAppend(base):
			case <-time.After(250 * time.Millisecond):
			}
			spins = 0
			continue
		}
		spins = 0
		want = base + uint64(len(msgs))
		s.credit.Add(int64(-len(msgs)))
		if !s.c.writeDeliverOffsets(s.t.nameBytes, s.t.part, base, msgs) {
			return
		}
		s.c.b.m.MsgsOut.Add(int64(len(msgs)))
		s.c.b.m.DeliverFrames.Add(1)
	}
}

// unlink removes the subscription from its topic's accounting.
func (s *sub) unlink() {
	s.t.mu.Lock()
	delete(s.t.subs, s)
	s.t.mu.Unlock()
}

// idleWait is the delivery/credit idle backoff: yield briefly, then
// sleep with escalation up to 1ms. Subscriptions are not latency
// critical the way queue cells are — a parked subscription wakes at
// worst 1ms after traffic resumes, and an idle broker burns no CPU.
func idleWait(spins int) {
	switch {
	case spins < 16:
		runtime.Gosched()
	case spins < 64:
		time.Sleep(50 * time.Microsecond)
	default:
		time.Sleep(time.Millisecond)
	}
}

// isTimeout reports whether err is a deadline error (Shutdown's reader
// wake-up).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
