// Package client is the Go client for the ffqd wire protocol:
// auto-batching pipelined producers, credit-window subscriptions, and
// PING round-trips, over any net.Conn.
//
// # Producer side
//
// Publish appends to a per-topic buffer; a full buffer (MaxBatch) or
// the flush timer (FlushInterval) turns it into one PRODUCE frame.
// Batching is what the broker's ingress path is built around — one
// frame is one arena copy, one SPSC staging slot and one
// EnqueueBatch rank reservation, regardless of message count. The
// pipeline keeps at most Window unacknowledged messages in flight per
// topic; Publish blocks (backpressure) beyond that.
//
// # Consumer side
//
// Subscribe opens a credit window; the broker delivers at most that
// many messages beyond what Recv has consumed, so the Subscription's
// buffered channel can never block the client's read loop. Recv
// replenishes credit in half-window chunks. The channel closes after
// the broker's end-of-stream marker (sent when the topic is drained
// on shutdown) or on connection failure — check Err to tell the two
// apart.
//
// # Durable topics
//
// Against a durable broker (-data-dir), SubscribeFrom opens a replay
// subscription: a log follower that receives every message of the
// topic from a chosen offset (or FromCursor, the consumer group's
// persisted position) with its offset attached — RecvMsg instead of
// Recv. Commit persists the group's cursor (the first offset NOT yet
// processed); after a crash, SubscribeFrom(FromCursor) resumes there,
// so a consumer that commits after side-effecting gets at-least-once
// delivery, deduplicable by offset. Offsets queries a topic's
// retained range and a group's cursor.
package client

import (
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ffq/internal/wire"
)

// Defaults for Options zero values.
const (
	DefaultMaxBatch      = 64
	DefaultFlushInterval = time.Millisecond
	DefaultWindow        = 1024
)

// NoPartition addresses the classic unpartitioned form of a topic;
// the *Part methods take it to mean "no partition qualifier". The
// plain methods (Publish, Subscribe, ...) use it implicitly.
const NoPartition = wire.NoPartition

// ErrOffsetTruncated is the broker's answer to a strict replay
// (SubscribeFromPart with strict=true) whose requested offset the
// broker no longer retains, or that hit a retention gap mid-stream.
// Oldest is the first offset still live; a replication follower
// recovers by ResetTo(Oldest) on its local log and resubscribing.
type ErrOffsetTruncated struct {
	Oldest uint64
	msg    string
}

func (e *ErrOffsetTruncated) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return "client: replay offset truncated; oldest retained is " + strconv.FormatUint(e.Oldest, 10)
}

// ErrNotOwner reports a partitioned operation sent to a cluster node
// that does not hold the partition in the required role. The fix is
// client-side routing: recompute the owner from the cluster config
// and dial that node.
type ErrNotOwner struct {
	Part uint32
	msg  string
}

func (e *ErrNotOwner) Error() string { return e.msg }

// NodeInfo is one cluster member as reported by Meta.
type NodeInfo struct {
	ID   string
	Addr string
}

// MetaInfo is a broker's METADATA answer: the static cluster shape
// (zero values on a standalone broker) and the partitioned topics
// present on that node.
type MetaInfo struct {
	NodeID      string
	Partitions  uint32
	Replication uint32
	Nodes       []NodeInfo
	Topics      []string
}

// Options configures a Client.
type Options struct {
	// MaxBatch is the flush threshold in messages per topic; a Publish
	// that fills the buffer flushes synchronously. 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// FlushInterval bounds how long a message may sit in the batch
	// buffer before a timer flushes it. 0 means DefaultFlushInterval.
	FlushInterval time.Duration
	// Window is the per-topic pipelining bound: the maximum number of
	// published-but-unacknowledged messages before Publish blocks.
	// 0 means DefaultWindow.
	Window int
}

// Client is one ffqd connection. All methods are safe for concurrent
// use; each Subscription's Recv is single-consumer.
type Client struct {
	nc   net.Conn
	opts Options

	// wmu serializes frame writes; wbuf is the shared encode buffer.
	wmu  sync.Mutex
	wbuf wire.Buffer

	// pubs/subs/offsets are two-level maps, topic name then partition
	// (NoPartition for the classic namespace): the inner lookup keeps
	// the read loop's byte-slice topic keys allocation-free.
	mu     sync.Mutex
	pubs   map[string]map[uint32]*pub
	subs   map[string]map[uint32]*Subscription
	pings  map[uint64]chan struct{}
	pingID uint64
	// offsets holds pending Offsets queries per topic partition,
	// answered in FIFO order (the broker replies in request order per
	// connection); metas likewise for Meta queries.
	offsets map[string]map[uint32][]chan offsetsReply
	metas   []chan MetaInfo
	err     error

	// done closes when the connection dies (peer close, protocol or
	// socket error).
	done chan struct{}
}

// Dial connects to an ffqd broker over TCP.
func Dial(addr string, opts Options) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return New(nc, opts), nil
}

// New adopts an established connection (TCP or a net.Pipe end) and
// starts the read loop.
func New(nc net.Conn, opts Options) *Client {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	c := &Client{
		nc:      nc,
		opts:    opts,
		pubs:    map[string]map[uint32]*pub{},
		subs:    map[string]map[uint32]*Subscription{},
		pings:   map[uint64]chan struct{}{},
		offsets: map[string]map[uint32][]chan offsetsReply{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Err returns the terminal connection error, or nil while the
// connection is healthy. A clean Close reports net.ErrClosed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records the terminal error once and unblocks everything:
// publishers waiting on window space, subscriptions waiting on Recv,
// pings waiting on pongs.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pubs := make([]*pub, 0, len(c.pubs))
	for _, m := range c.pubs {
		for _, p := range m {
			pubs = append(pubs, p)
		}
	}
	subs := make([]*Subscription, 0, len(c.subs))
	for _, m := range c.subs {
		for _, s := range m {
			subs = append(subs, s)
		}
	}
	c.mu.Unlock()

	close(c.done)
	c.nc.Close()
	for _, p := range pubs {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	for _, s := range subs {
		s.closeCh()
	}
}

// readLoop dispatches broker frames: DELIVERs to subscriptions, ACKs
// to publisher windows (or, with FlagEnd, subscription end-of-stream),
// PONGs to waiting Pings.
func (c *Client) readLoop() {
	r := wire.NewReader(c.nc)
	for {
		f, err := r.Next()
		if err != nil {
			c.fail(err)
			return
		}
		switch f.Type {
		case wire.TProduce:
			if f.Flags&wire.FlagDeliver == 0 {
				c.fail(errors.New("client: PRODUCE without DELIVER flag from broker"))
				return
			}
			if f.Flags&wire.FlagOffset != 0 {
				topic, part, base, b, err := wire.ParseDeliverOffsets(f)
				if err != nil {
					c.fail(err)
					return
				}
				c.mu.Lock()
				s := c.subs[string(topic)][part]
				c.mu.Unlock()
				if s == nil || s.mch == nil {
					continue // subscription raced away; drop
				}
				// One copy per DELIVER frame; the payloads handed to Recv
				// are sub-slices of it.
				b = b.Clone()
				for off := base; b.N > 0; off++ {
					m, _ := b.Next()
					s.mch <- Msg{Offset: off, Payload: m}
				}
				continue
			}
			p, err := wire.ParseProduce(f)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			s := c.subs[string(p.Topic)][p.Part]
			c.mu.Unlock()
			if s == nil {
				continue // subscription raced away; drop
			}
			b := p.Batch.Clone()
			for m, ok := b.Next(); ok; m, ok = b.Next() {
				s.ch <- m
			}
		case wire.TAck:
			topic, part, seq, err := wire.ParseAck(f)
			if err != nil {
				c.fail(err)
				return
			}
			if f.Flags&wire.FlagEnd != 0 {
				c.mu.Lock()
				s := c.subs[string(topic)][part]
				c.mu.Unlock()
				if s != nil {
					s.ended.Store(true)
					s.closeCh()
				}
				continue
			}
			c.mu.Lock()
			p := c.pubs[string(topic)][part]
			c.mu.Unlock()
			if p != nil {
				p.mu.Lock()
				if seq > p.acked {
					p.acked = seq
					p.cond.Broadcast()
				}
				p.mu.Unlock()
			}
		case wire.TOffsets:
			topic, part, oldest, next, cursor, err := wire.ParseOffsetsResp(f)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			var ch chan offsetsReply
			if q := c.offsets[string(topic)][part]; len(q) > 0 {
				ch = q[0]
				c.offsets[string(topic)][part] = q[1:]
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- offsetsReply{oldest: oldest, next: next, cursor: cursor}
			}
		case wire.TMeta:
			if f.Flags&wire.FlagReply == 0 {
				c.fail(errors.New("client: METADATA request from broker"))
				return
			}
			m, err := wire.ParseMetaResp(f)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			var ch chan MetaInfo
			if len(c.metas) > 0 {
				ch = c.metas[0]
				c.metas = c.metas[1:]
			}
			c.mu.Unlock()
			if ch != nil {
				info := MetaInfo{
					NodeID:      m.NodeID,
					Partitions:  m.Partitions,
					Replication: m.Replication,
					Topics:      m.Topics,
				}
				for _, n := range m.Nodes {
					info.Nodes = append(info.Nodes, NodeInfo{ID: n.ID, Addr: n.Addr})
				}
				ch <- info
			}

		case wire.TPing:
			token, err := wire.ParsePing(f)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			ch := c.pings[token]
			delete(c.pings, token)
			c.mu.Unlock()
			if ch != nil {
				ch <- struct{}{}
			}
		case wire.TErr:
			code, detail, msg, err := wire.ParseErrCode(f)
			if err != nil {
				c.fail(err)
				return
			}
			switch code {
			case wire.ECodeTruncated:
				c.fail(&ErrOffsetTruncated{Oldest: detail, msg: "client: broker error: " + msg})
			case wire.ECodeNotOwner:
				c.fail(&ErrNotOwner{Part: uint32(detail), msg: "client: broker error: " + msg})
			default:
				c.fail(errors.New("client: broker error: " + msg))
			}
			return
		default:
			c.fail(errors.New("client: unexpected frame type from broker"))
			return
		}
	}
}

// ---- producer side ----

// pub is the per-topic-partition publish state: batch buffer +
// pipeline window. Each partition pipelines independently — a full
// window on one partition never blocks publishes to another.
type pub struct {
	c     *Client
	topic []byte
	part  uint32

	mu   sync.Mutex
	cond *sync.Cond
	// arena holds the pending messages' bytes back to back from offset
	// 0; pending[i] is message i's sub-slice of it. A flush encodes the
	// frame it sends and compacts both, so the arena stays within one
	// unsent batch and Publish stops allocating once it has grown.
	arena   []byte
	pending [][]byte
	// sent/acked track the pipeline window in messages; acked is the
	// broker's cumulative ACK.
	sent, acked uint64
	// wbuf holds the PRODUCE frame being written and writing marks
	// that write in flight. One write at a time per pub keeps frames
	// in window order; the next flush waits for it on cond.
	wbuf    wire.Buffer
	writing bool
	// timer is the FlushInterval timer, made by the first Publish that
	// arms it and re-armed with Reset after it fires.
	timer      *time.Timer
	timerArmed bool
}

// pub returns (creating) the publish state for (topic, part).
func (c *Client) pub(topic string, part uint32) *pub {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pubs[topic][part]
	if !ok {
		p = &pub{c: c, topic: []byte(topic), part: part}
		p.cond = sync.NewCond(&p.mu)
		if c.pubs[topic] == nil {
			c.pubs[topic] = map[uint32]*pub{}
		}
		c.pubs[topic][part] = p
	}
	return p
}

// Publish queues msg for topic (the bytes are copied). It flushes
// synchronously when the batch buffer reaches MaxBatch and blocks when
// the pipeline window is full; otherwise it returns immediately and
// the flush timer picks the batch up.
func (c *Client) Publish(topic string, msg []byte) error {
	return c.PublishPart(topic, NoPartition, msg)
}

// PublishPart queues msg for one partition of topic, with the same
// batching and windowing as Publish. Against a clustered broker the
// connection must be to the partition's owner — anything else dies
// with ErrNotOwner.
func (c *Client) PublishPart(topic string, part uint32, msg []byte) error {
	p := c.pub(topic, part)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := c.Err(); err != nil {
		return err
	}
	start := len(p.arena)
	p.arena = append(p.arena, msg...)
	p.pending = append(p.pending, p.arena[start:len(p.arena):len(p.arena)])
	if len(p.pending) >= c.opts.MaxBatch {
		return p.flushLocked()
	}
	if !p.timerArmed {
		p.timerArmed = true
		if p.timer == nil {
			p.timer = time.AfterFunc(c.opts.FlushInterval, p.timerFlush)
		} else {
			p.timer.Reset(c.opts.FlushInterval)
		}
	}
	return nil
}

// timerFlush is the FlushInterval callback.
func (p *pub) timerFlush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timerArmed = false
	if len(p.pending) > 0 && p.c.Err() == nil {
		p.flushLocked() // best effort; errors surface on the next Publish
	}
}

// flushLocked sends the pending batch as PRODUCE frames, waiting for
// window space as needed. Callers hold p.mu.
//
// Each frame is encoded into p.wbuf while p.mu is still held, because
// the pending messages alias the arena that concurrent Publishes
// refill once it is released. The socket write happens with p.mu
// RELEASED, and wmu is taken only after releasing it: the read loop
// takes p.mu to process ACKs, and on a synchronous transport
// (net.Pipe) a write can only complete once the peer's reads
// progress, which may wait for the client to read an ACK. Holding
// p.mu across the write, or while waiting for another pub's write to
// release wmu, would deadlock the window against its own
// acknowledgements.
func (p *pub) flushLocked() error {
	c := p.c
	for len(p.pending) > 0 {
		if err := c.Err(); err != nil {
			return err
		}
		if p.writing || p.sent-p.acked >= uint64(c.opts.Window) {
			p.cond.Wait()
			continue
		}
		room := c.opts.Window - int(p.sent-p.acked)
		n := min(len(p.pending), c.opts.MaxBatch, room)
		p.wbuf.Reset()
		p.wbuf.PutProduce(0, p.topic, p.part, p.pending[:n])
		p.sent += uint64(n)
		p.compact(n)
		p.writing = true
		p.mu.Unlock()
		c.wmu.Lock()
		_, err := c.nc.Write(p.wbuf.Bytes())
		c.wmu.Unlock()
		p.mu.Lock()
		p.writing = false
		p.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// compact drops the first n pending messages, moving the rest to the
// front of the arena. Callers hold p.mu.
func (p *pub) compact(n int) {
	rest := p.pending[n:]
	sent := len(p.arena)
	for _, m := range rest {
		sent -= len(m)
	}
	p.arena = p.arena[:copy(p.arena, p.arena[sent:])]
	off := 0
	for i, m := range rest {
		p.pending[i] = p.arena[off : off+len(m) : off+len(m)]
		off += len(m)
	}
	clear(p.pending[len(rest):])
	p.pending = p.pending[:len(rest)]
}

// Flush sends every topic's pending batch now.
func (c *Client) Flush() error {
	var first error
	for _, p := range c.allPubs() {
		p.mu.Lock()
		if err := p.flushLocked(); err != nil && first == nil {
			first = err
		}
		p.mu.Unlock()
	}
	return first
}

// Drain flushes and then blocks until the broker has acknowledged
// every published message (the pipeline is empty).
func (c *Client) Drain() error {
	if err := c.Flush(); err != nil {
		return err
	}
	for _, p := range c.allPubs() {
		p.mu.Lock()
		for c.Err() == nil && p.acked < p.sent {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
	return c.Err()
}

func (c *Client) allPubs() []*pub {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*pub, 0, len(c.pubs))
	for _, m := range c.pubs {
		for _, p := range m {
			out = append(out, p)
		}
	}
	return out
}

// ---- consumer side ----

// Subscription is one credit-window subscription. Recv (or RecvMsg on
// a replay subscription) is single-consumer; everything else on the
// Client stays concurrent.
type Subscription struct {
	c      *Client
	topic  []byte
	part   uint32
	ch     chan []byte
	window int
	// mch replaces ch on a replay subscription: deliveries carry
	// offsets there.
	mch chan Msg
	// taken counts messages consumed since the last CREDIT; Recv
	// replenishes at half a window.
	taken  int
	closed atomic.Bool
	ended  atomic.Bool
}

// Msg is one replay-delivered message: the payload plus its durable
// per-topic offset.
type Msg struct {
	Offset  uint64
	Payload []byte
}

// FromCursor, passed to SubscribeFrom, resumes from the consumer
// group's persisted cursor (or the log's oldest retained offset when
// the group has no cursor yet).
const FromCursor = wire.OffsetCursor

// offsetsReply carries one OFFSETS response to its waiting query.
type offsetsReply struct {
	oldest, next, cursor uint64
}

// Ended reports whether the broker sent the end-of-stream marker (a
// graceful drain). After Recv returns ok=false, Ended distinguishes a
// clean end from a connection failure.
func (s *Subscription) Ended() bool { return s.ended.Load() }

// register indexes a new subscription under (topic, part), rejecting
// duplicates.
func (c *Client) register(topic string, s *Subscription) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if _, dup := c.subs[topic][s.part]; dup {
		return errors.New("client: already subscribed to " + topic)
	}
	if c.subs[topic] == nil {
		c.subs[topic] = map[uint32]*Subscription{}
	}
	c.subs[topic][s.part] = s
	return nil
}

func (c *Client) unregister(topic string, part uint32) {
	c.mu.Lock()
	delete(c.subs[topic], part)
	c.mu.Unlock()
}

// Subscribe opens a subscription on topic with the given credit window
// (0 means the client default). The window bounds broker-side
// in-flight deliveries and is also the Recv buffer size.
func (c *Client) Subscribe(topic string, window int) (*Subscription, error) {
	return c.SubscribePart(topic, NoPartition, window)
}

// SubscribePart opens a live subscription on one partition of topic.
// Against a clustered broker the connection must be to the
// partition's owner.
func (c *Client) SubscribePart(topic string, part uint32, window int) (*Subscription, error) {
	if window <= 0 {
		window = c.opts.Window
	}
	s := &Subscription{
		c:      c,
		topic:  []byte(topic),
		part:   part,
		ch:     make(chan []byte, window),
		window: window,
	}
	if err := c.register(topic, s); err != nil {
		return nil, err
	}
	if err := c.writeConsume(s.topic, part, uint32(window)); err != nil {
		c.unregister(topic, part)
		return nil, err
	}
	return s, nil
}

// SubscribeFrom opens a replay subscription on a durable topic: the
// broker streams the topic's log from the given offset (FromCursor =
// the group's persisted position) and keeps following it at the head.
// Every message arrives with its offset via RecvMsg. group may be
// empty — then there is no cursor to resume from or Commit to.
func (c *Client) SubscribeFrom(topic string, window int, from uint64, group string) (*Subscription, error) {
	return c.SubscribeFromPart(topic, NoPartition, window, from, group, false)
}

// SubscribeFromPart is SubscribeFrom addressed to one partition.
// Replay is served by the partition's owner and by its replicas (a
// replica streams what its follower has copied so far). strict asks
// the broker to fail the stream with ErrOffsetTruncated instead of
// silently clamping when retention has dropped requested offsets —
// the mode replication followers run in.
func (c *Client) SubscribeFromPart(topic string, part uint32, window int, from uint64, group string, strict bool) (*Subscription, error) {
	if window <= 0 {
		window = c.opts.Window
	}
	s := &Subscription{
		c:      c,
		topic:  []byte(topic),
		part:   part,
		mch:    make(chan Msg, window),
		window: window,
	}
	if err := c.register(topic, s); err != nil {
		return nil, err
	}
	if err := c.writeConsumeFrom(s.topic, part, uint32(window), from, []byte(group), strict); err != nil {
		c.unregister(topic, part)
		return nil, err
	}
	return s, nil
}

// Recv returns the next delivered message; ok=false means
// end-of-stream (broker drain) or connection failure — check
// Client.Err to distinguish. It replenishes the broker's credit
// window as messages are consumed.
func (s *Subscription) Recv() (msg []byte, ok bool) {
	if s.mch != nil {
		m, ok := s.RecvMsg()
		return m.Payload, ok
	}
	m, ok := <-s.ch
	if !ok {
		return nil, false
	}
	s.replenish()
	return m, true
}

// RecvMsg returns the next replay-delivered message with its offset;
// only valid on a SubscribeFrom subscription. ok=false as in Recv.
func (s *Subscription) RecvMsg() (m Msg, ok bool) {
	m, ok = <-s.mch
	if !ok {
		return Msg{}, false
	}
	s.replenish()
	return m, true
}

// RecvMsgBatch blocks for one replay-delivered message, then drains
// whatever else is already buffered, up to max. ok=false as in Recv.
// It exists for consumers that amortize per-batch work — the
// replication follower turns each batch into one WAL record instead
// of one record per message.
func (s *Subscription) RecvMsgBatch(max int) (msgs []Msg, ok bool) {
	if max <= 0 {
		max = s.window
	}
	m, ok := <-s.mch
	if !ok {
		return nil, false
	}
	msgs = append(msgs, m)
	for len(msgs) < max {
		select {
		case m, more := <-s.mch:
			if !more {
				// Channel closed behind the buffered tail; deliver what
				// we have — the next call reports the close.
				for range msgs {
					s.replenish()
				}
				return msgs, true
			}
			msgs = append(msgs, m)
			continue
		default:
		}
		break
	}
	for range msgs {
		s.replenish()
	}
	return msgs, true
}

// replenish grants the broker more credit once half the window has
// been consumed.
func (s *Subscription) replenish() {
	s.taken++
	if s.taken >= max(1, s.window/2) {
		s.c.writeCredit(s.topic, s.part, uint32(s.taken))
		s.taken = 0
	}
}

// Commit persists the subscription's consumer-group cursor: off is the
// first offset NOT yet processed (commit Msg.Offset+1 after handling a
// message). Requires a SubscribeFrom subscription with a group.
func (s *Subscription) Commit(off uint64) error {
	if s.mch == nil {
		return errors.New("client: Commit on a non-replay subscription")
	}
	return s.c.writeCommit(s.topic, s.part, off)
}

// closeCh closes the delivery channel exactly once (end marker and
// connection failure can race).
func (s *Subscription) closeCh() {
	if s.closed.CompareAndSwap(false, true) {
		if s.mch != nil {
			close(s.mch)
		} else {
			close(s.ch)
		}
	}
}

// Offsets queries a durable topic's offset range and, when group is
// non-empty, that group's committed cursor (wire.OffsetCursor — i.e.
// ^uint64(0) — when the group has none).
func (c *Client) Offsets(topic, group string) (oldest, next, cursor uint64, err error) {
	return c.OffsetsPart(topic, NoPartition, group)
}

// OffsetsPart is Offsets addressed to one partition; replicas answer
// for partitions they hold with the range their follower has copied.
func (c *Client) OffsetsPart(topic string, part uint32, group string) (oldest, next, cursor uint64, err error) {
	ch := make(chan offsetsReply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, 0, 0, err
	}
	if c.offsets[topic] == nil {
		c.offsets[topic] = map[uint32][]chan offsetsReply{}
	}
	c.offsets[topic][part] = append(c.offsets[topic][part], ch)
	c.mu.Unlock()
	if err := c.writeOffsetsReq([]byte(topic), part, []byte(group)); err != nil {
		return 0, 0, 0, err
	}
	select {
	case r := <-ch:
		return r.oldest, r.next, r.cursor, nil
	case <-c.done:
		return 0, 0, 0, c.Err()
	}
}

// Meta queries the broker's cluster shape and partitioned topics. On
// a standalone broker the cluster fields come back zero.
func (c *Client) Meta() (MetaInfo, error) {
	ch := make(chan MetaInfo, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return MetaInfo{}, err
	}
	c.metas = append(c.metas, ch)
	c.mu.Unlock()
	if err := c.writeMetaReq(); err != nil {
		return MetaInfo{}, err
	}
	select {
	case m := <-ch:
		return m, nil
	case <-c.done:
		return MetaInfo{}, c.Err()
	}
}

// ---- ping ----

// Ping round-trips a PING frame and returns the wire+broker latency.
func (c *Client) Ping() (time.Duration, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.pingID++
	token := c.pingID
	ch := make(chan struct{}, 1)
	c.pings[token] = ch
	c.mu.Unlock()

	start := time.Now()
	if err := c.writePing(token); err != nil {
		return 0, err
	}
	select {
	case <-ch:
		return time.Since(start), nil
	case <-c.done:
		return 0, c.Err()
	}
}

// Close flushes pending batches and closes the connection. Open
// subscriptions observe end-of-stream.
func (c *Client) Close() error {
	c.Flush()
	err := c.nc.Close()
	<-c.done // read loop exits and closes subscription channels
	return err
}

// ---- serialized writer ----

func (c *Client) writeConsume(topic []byte, part uint32, credit uint32) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutConsume(topic, part, credit)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writeConsumeFrom(topic []byte, part uint32, credit uint32, from uint64, group []byte, strict bool) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutConsumeFrom(topic, part, credit, from, group, strict)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writeCommit(topic []byte, part uint32, off uint64) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutAck(wire.FlagOffset, topic, part, off)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writeOffsetsReq(topic []byte, part uint32, group []byte) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutOffsetsReq(topic, part, group)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writeCredit(topic []byte, part uint32, n uint32) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutCredit(topic, part, n)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writeMetaReq() error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutMetaReq()
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}

func (c *Client) writePing(token uint64) error {
	c.wmu.Lock()
	c.wbuf.Reset()
	c.wbuf.PutPing(token, false)
	_, err := c.nc.Write(c.wbuf.Bytes())
	c.wmu.Unlock()
	return err
}
