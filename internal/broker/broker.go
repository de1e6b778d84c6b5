// Package broker is ffqd's data plane: FFQ fan-out put on the network.
//
// # Architecture
//
// Every accepted connection gets a reader goroutine, a bounded SPSC
// ingress queue and a pump goroutine:
//
//	conn → reader ──SPSC──▶ pump ──EnqueueBatch──▶ topic (ShardedMPMC)
//	                               (own lane)         │ TryDequeueBatch
//	                                  subscription ◀──┘ (one per CONSUME)
//	                                       │ DELIVER frames, credit-gated
//	                                       ▼
//	                                     conn writer
//
// The reader decodes PRODUCE frames and stages each batch — one owned
// copy of the frame's batch body, never one per message — into its
// connection's SPSC queue (the paper's one-queue-per-producer shape).
// The lanes carry sub-slices of that copy, so a message still queued
// pins its frame body: per lane, at most lane depth × the largest
// frame. The SPSC queue is bounded, so a
// producer that outruns the broker stalls its own reader and the
// backpressure propagates into TCP, never into other connections.
//
// Topics are sharded queues of bounded per-producer FFQ^s lanes. Every
// pump (per connection here, per shm segment in shm.go) feeds them
// through topic.ingest: WAL append first on durable brokers, then an
// EnqueueBatch on the pump's own lane with the wait-free
// single-producer path — no CAS against the other producers. (At most
// lanes-1 handles are granted per topic; pumps beyond that share the
// fallback lane, which still preserves their per-producer FIFO
// order.) A pump facing a full lane spins until subscribers drain it,
// which stalls its staging queue and, through it, the producer's TCP
// stream. Cumulative ACKs per touched topic follow each pump flush.
//
// # Staging liveness
//
// Staging keeps a connection's CREDIT frames flowing while its pump
// waits on a full lane, which a connection consuming from its own
// topic needs. It holds a client's whole default publish window of
// single-message frames; the bound that remains is one window per
// topic per connection.
//
// Fan-out is competitive-consumer: each subscription claims a batch of
// messages up to its credit window with one TryDequeueBatch scan (a
// single CAS per non-empty lane instead of one claim per message), so
// a message is delivered to exactly one subscriber and per-producer
// FIFO order is preserved per subscriber. The non-blocking claim is
// what keeps slow consumers from stalling the topic: a subscription
// with no credit simply does not claim — a blocking dequeue would park
// it on a rank and starve the other subscribers behind it.
//
// # Credit-window backpressure
//
// A CONSUME frame opens a subscription with an initial credit: the
// number of messages the broker may deliver before hearing CREDIT
// again. Deliveries debit the window before they claim; a window at
// zero pauses only that subscription. Credit therefore bounds the
// bytes in flight per subscriber and lets one stalled consumer idle
// while the rest of the pool keeps draining the topic.
//
// # Durable topics
//
// With Options.DataDir set every topic is durable: topic.ingest
// appends each batch to the topic's write-ahead log (internal/wal)
// before enqueueing it for live fan-out, so the cumulative ACK a
// producer receives means "on the log", under whatever fsync policy
// the broker runs. The log assigns each message a monotonic per-topic
// offset at that append.
//
// The live fan-out path is unchanged — competitive consumers claim
// from the in-memory sharded queue exactly as before. What durability
// adds is the replay subscription (CONSUME+FlagOffset): a log
// follower that reads the WAL from a requested offset (or its
// consumer group's persisted cursor), streams DELIVER+FlagOffset
// batches carrying explicit offsets, and on reaching the head keeps
// following the log by parking on its append notification — replay
// and live tail are one code path over one source of truth. Followers
// observe every message (they never claim from the live queue, so
// they steal nothing from competitive subscribers), and commit their
// position with ACK+FlagOffset, which persists the group cursor.
//
// # Shutdown
//
// Shutdown drains rather than drops: stop accepting, cut PRODUCE off
// (readers stay up, still serving CREDIT so the drain can progress),
// let pumps flush staged batches into their topics, seal the
// write-ahead logs (flushing them to stable storage and persisting
// consumer cursors — nothing acknowledged is lost), close the topic
// queues (safe: all producers have exited), then let every
// subscription drain its topic — still credit-gated — and finish with
// an ACK+FlagEnd end-of-stream marker. A context bounds the wait;
// expiry force-stops the remaining subscriptions.
package broker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ffq"
	"ffq/internal/cluster"
	"ffq/internal/obs"
	"ffq/internal/obs/expvarx"
	"ffq/internal/wal"
	"ffq/internal/wire"
)

// Defaults for Options zero values.
const (
	// DefaultDeliverBatch caps messages per DELIVER frame.
	DefaultDeliverBatch = 64
	// DefaultTopicLanes is the number of per-producer lanes in each
	// topic queue. Up to lanes-1 connections get an exclusive lane;
	// the rest share the remainder through transient claims.
	DefaultTopicLanes = 8
	// DefaultTopicLaneDepth is each lane's message capacity; a full
	// lane backpressures its producing connection.
	DefaultTopicLaneDepth = 1024
)

// Options configures a Broker.
type Options struct {
	// DeliverBatch caps the messages packed into one DELIVER frame.
	// 0 means DefaultDeliverBatch.
	DeliverBatch int
	// TopicLanes is the number of per-producer lanes in each topic
	// queue. Size it to the expected number of concurrently producing
	// connections per topic; 0 means DefaultTopicLanes.
	TopicLanes int
	// TopicLaneDepth is each lane's capacity in messages (a power of
	// two). A full lane stalls its producing connection's pump — the
	// broker's topic-level backpressure. 0 means DefaultTopicLaneDepth.
	TopicLaneDepth int
	// Instrument enables queue instrumentation on every topic and
	// registers the topics plus the broker's own counters with the
	// expvarx Prometheus endpoint.
	Instrument bool
	// OpLatency additionally records per-operation enqueue/dequeue
	// latency histograms on every topic queue (two clock reads per op;
	// exported as ffq_op_latency_ns). Implies instrumentation of the
	// topic queues but not the broker-level collectors — pair it with
	// Instrument to see the histograms on /metrics.
	OpLatency bool
	// StallThreshold arms the stall watchdog on every topic queue:
	// blocking waits past the threshold become timestamped stall
	// events (exported as ffq_stall_events_total / ffq_stall_seconds).
	// 0 leaves the watchdog off.
	StallThreshold time.Duration
	// MetricsPrefix namespaces the expvarx registrations (useful when
	// tests run several instrumented brokers in one process). Empty
	// means "ffqd".
	MetricsPrefix string

	// DataDir turns on durable topics: every topic gets a write-ahead
	// log under DataDir/<topic> and producers are only ACKed after
	// their batch is appended to it. Empty means in-memory only.
	DataDir string
	// Fsync is the WAL durability policy (see wal.SyncPolicy); only
	// meaningful with DataDir set.
	Fsync wal.SyncPolicy
	// FsyncInterval is the background fsync period under
	// wal.SyncInterval. 0 means wal.DefaultSyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment roll threshold. 0 means
	// wal.DefaultSegmentBytes.
	SegmentBytes int64
	// RetentionBytes/RetentionAge bound each topic's log (oldest
	// sealed segments are dropped past either limit); 0 means
	// unbounded.
	RetentionBytes int64
	RetentionAge   time.Duration

	// ShmDir turns on shared-memory ingress: the broker scans the
	// directory for mmap segment files (internal/shm) created by local
	// producers and pumps each into its topic. Empty means off.
	ShmDir string
	// ShmScanInterval is how often ShmDir is scanned for new segments.
	// 0 means DefaultShmScanInterval.
	ShmScanInterval time.Duration

	// Cluster puts the broker in cluster mode: partitioned frames are
	// checked against the static partition map (PRODUCE and live
	// CONSUME only on the partition's owner; replay and OFFSETS also on
	// its replicas) and METADATA answers carry the node list. Requires
	// DataDir — replication follows the write-ahead log. nil means
	// standalone, where any partition id is accepted as a plain
	// namespace.
	Cluster *cluster.Config
}

// Option validation errors; Validate wraps them with detail.
var (
	ErrNegativeOption          = errors.New("broker: option must not be negative")
	ErrBadLaneDepth            = errors.New("broker: TopicLaneDepth must be a power of two")
	ErrRetentionWithoutDataDir = errors.New("broker: retention options require DataDir")
	ErrFsyncWithoutDataDir     = errors.New("broker: fsync options require DataDir")
	ErrSegmentWithoutDataDir   = errors.New("broker: SegmentBytes requires DataDir")
	ErrClusterWithoutDataDir   = errors.New("broker: cluster mode requires DataDir (replication follows the WAL)")
)

// Validate checks the options for internal consistency and returns a
// typed error (one of the Err* sentinels, wrapped, or a
// cluster.Err* sentinel from the embedded cluster config) on the
// first violation. New validates automatically; cmd wiring calls it
// directly to reject bad flag combinations before any socket opens.
func (o *Options) Validate() error {
	for _, v := range []struct {
		name string
		val  int64
	}{
		{"DeliverBatch", int64(o.DeliverBatch)},
		{"TopicLanes", int64(o.TopicLanes)},
		{"TopicLaneDepth", int64(o.TopicLaneDepth)},
		{"SegmentBytes", o.SegmentBytes},
		{"RetentionBytes", o.RetentionBytes},
		{"RetentionAge", int64(o.RetentionAge)},
		{"FsyncInterval", int64(o.FsyncInterval)},
		{"StallThreshold", int64(o.StallThreshold)},
		{"ShmScanInterval", int64(o.ShmScanInterval)},
	} {
		if v.val < 0 {
			return fmt.Errorf("%w: %s = %d", ErrNegativeOption, v.name, v.val)
		}
	}
	if o.TopicLaneDepth != 0 && o.TopicLaneDepth&(o.TopicLaneDepth-1) != 0 {
		return fmt.Errorf("%w: %d", ErrBadLaneDepth, o.TopicLaneDepth)
	}
	if o.DataDir == "" {
		if o.RetentionBytes != 0 || o.RetentionAge != 0 {
			return ErrRetentionWithoutDataDir
		}
		if o.Fsync != wal.SyncOff || o.FsyncInterval != 0 {
			return ErrFsyncWithoutDataDir
		}
		if o.SegmentBytes != 0 {
			return ErrSegmentWithoutDataDir
		}
		if o.Cluster != nil {
			return ErrClusterWithoutDataDir
		}
	}
	if o.Cluster != nil {
		if err := o.Cluster.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Broker accepts ffqd wire connections and routes PRODUCE batches into
// per-topic sharded queues of bounded FFQ lanes, fanning them out to
// credit-gated subscribers.
type Broker struct {
	opts Options

	mu     sync.Mutex
	topics map[topicKey]*topic
	conns  map[*conn]struct{}
	ln     net.Listener

	// draining closes when Shutdown begins; readers treat their read
	// deadline firing as "drain and exit" once it is closed.
	draining chan struct{}
	closing  atomic.Bool

	// readWG tracks reader goroutines, pumpWG the ingress pumps,
	// deliverWG the subscription delivery goroutines. Shutdown waits
	// for them in that order. shmWG tracks the shared-memory scanner
	// and its per-segment pumps (see shm.go).
	readWG    sync.WaitGroup
	pumpWG    sync.WaitGroup
	deliverWG sync.WaitGroup
	shmWG     sync.WaitGroup

	// shm tracks the shared-memory segments being served.
	shm shmState

	m      Metrics
	connID atomic.Uint64

	// fsyncLat aggregates WAL fsync latency across topics (nil unless
	// durable and instrumented).
	fsyncLat *obs.LatencyHist
	// retainWG tracks the age-retention sweeper (durable brokers with
	// RetentionAge only).
	retainWG sync.WaitGroup
}

// durable reports whether topics persist to a write-ahead log.
func (b *Broker) durable() bool { return b.opts.DataDir != "" }

// msg is one queued message: the payload plus the ingress timestamp
// stamped when its PRODUCE frame was decoded. The stamp is zero when
// the broker runs uninstrumented — end-to-end tracing costs one clock
// read per PRODUCE frame and one per DELIVER frame, never one per
// message.
type msg struct {
	payload   []byte
	ingressNS int64
}

// topicKey addresses one fan-out queue: a topic name plus a partition
// id (wire.NoPartition for classic unpartitioned topics). Every
// partition of a topic is an independent stream — its own lanes, its
// own WAL, its own offset space.
type topicKey struct {
	name string
	part uint32
}

// display is the human-readable form: "orders" for unpartitioned,
// "orders@3" for partition 3. Used for metrics labels, expvarx
// registration and subscription indexing; '@' cannot collide with an
// unpartitioned topic's WAL directory because wal.DirName escapes it.
func (k topicKey) display() string {
	if k.part == wire.NoPartition {
		return k.name
	}
	return k.name + "@" + strconv.FormatUint(uint64(k.part), 10)
}

// topic is one named fan-out queue plus its subscriber accounting.
type topic struct {
	name string
	// part is wire.NoPartition for classic topics.
	part uint32
	// display is topicKey.display(), computed once.
	display string
	// nameBytes is the wire form of the base name, encoded once.
	nameBytes []byte
	q         *ffq.ShardedMPMC[msg]

	// lat is the ingress-to-delivery latency histogram (nil unless
	// Options.Instrument): the full broker residence time of each
	// message, PRODUCE decode to DELIVER encode.
	lat *obs.LatencyHist

	// log and cursors are the topic's write-ahead log and consumer-
	// group cursor store (nil unless the broker is durable).
	log     *wal.Log
	cursors *wal.Cursors

	mu   sync.Mutex
	subs map[*sub]struct{}
}

// ingest is the one ingest path of connection and shm pumps. A durable
// topic appends the batch to its write-ahead log first, so a pump's
// ACK means "appended" and a batch the log rejects is never enqueued.
// The batch then goes onto the caller's lane h, or the shared fallback
// lane when h is nil, each message stamped with stamp. The lanes copy
// the elements, so scratch comes back for the caller's next batch.
func (t *topic) ingest(h *ffq.ProducerHandle[msg], payloads [][]byte, stamp int64, scratch []msg) ([]msg, error) {
	if t.log != nil {
		if _, err := t.log.Append(payloads); err != nil {
			return scratch, err
		}
	}
	scratch = scratch[:0]
	for _, pl := range payloads {
		scratch = append(scratch, msg{payload: pl, ingressNS: stamp})
	}
	if h != nil {
		h.EnqueueBatch(scratch)
	} else {
		for _, m := range scratch {
			t.q.Enqueue(m)
		}
	}
	return scratch, nil
}

// New returns a broker; Serve starts it.
func New(opts Options) (*Broker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.DeliverBatch == 0 {
		opts.DeliverBatch = DefaultDeliverBatch
	}
	if opts.TopicLanes == 0 {
		opts.TopicLanes = DefaultTopicLanes
	}
	if opts.TopicLaneDepth == 0 {
		opts.TopicLaneDepth = DefaultTopicLaneDepth
	}
	if opts.MetricsPrefix == "" {
		opts.MetricsPrefix = "ffqd"
	}
	if opts.ShmScanInterval == 0 {
		opts.ShmScanInterval = DefaultShmScanInterval
	}
	b := &Broker{
		opts:     opts,
		topics:   map[topicKey]*topic{},
		conns:    map[*conn]struct{}{},
		draining: make(chan struct{}),
	}
	if opts.Instrument {
		if err := expvarx.RegisterCollector(opts.MetricsPrefix, b.collect); err != nil {
			return nil, err
		}
	}
	if b.durable() {
		if opts.Instrument {
			b.fsyncLat = &obs.LatencyHist{}
		}
		if opts.RetentionAge > 0 {
			// Size retention runs at each segment roll; age retention
			// needs a clock, so a sweeper visits every log periodically.
			b.retainWG.Add(1)
			go b.retentionLoop()
		}
	}
	if opts.ShmDir != "" {
		b.initShm()
	}
	return b, nil
}

// retentionLoop enforces age-based retention on every durable topic's
// log until Shutdown.
func (b *Broker) retentionLoop() {
	defer b.retainWG.Done()
	period := b.opts.RetentionAge / 4
	if period > 10*time.Second {
		period = 10 * time.Second
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-b.draining:
			return
		case <-t.C:
			b.mu.Lock()
			logs := make([]*wal.Log, 0, len(b.topics))
			for _, tp := range b.topics {
				if tp.log != nil {
					logs = append(logs, tp.log)
				}
			}
			b.mu.Unlock()
			for _, l := range logs {
				l.EnforceRetention()
			}
		}
	}
}

// Serve accepts connections on ln until Shutdown (or a listener
// error). It returns nil after a Shutdown-initiated stop.
func (b *Broker) Serve(ln net.Listener) error {
	b.mu.Lock()
	b.ln = ln
	b.mu.Unlock()
	//ffq:ignore spin-backoff not a spin loop: every iteration blocks in Accept; the atomic load only classifies the exit path
	for {
		nc, err := ln.Accept()
		if err != nil {
			if b.closing.Load() {
				return nil
			}
			return err
		}
		b.ServeConn(nc)
	}
}

// ServeConn adopts one established connection (real TCP or a
// net.Pipe end); Serve calls it for every accept. It returns
// immediately — the connection's goroutines run in the background.
func (b *Broker) ServeConn(nc net.Conn) {
	c := newConn(b, nc)
	b.mu.Lock()
	if b.closing.Load() {
		b.mu.Unlock()
		nc.Close()
		return
	}
	b.conns[c] = struct{}{}
	b.mu.Unlock()
	b.m.ConnsOpen.Add(1)
	b.m.ConnsTotal.Add(1)
	b.readWG.Add(1)
	b.pumpWG.Add(1)
	go c.readLoop()
	go c.pumpLoop()
}

// getTopic returns (creating on first use) the addressed topic
// partition (part = wire.NoPartition for classic topics).
func (b *Broker) getTopic(name string, part uint32) (*topic, error) {
	key := topicKey{name: name, part: part}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[key]; ok {
		return t, nil
	}
	if b.closing.Load() {
		return nil, errors.New("broker: shutting down")
	}
	opts := []ffq.Option{}
	if b.opts.Instrument {
		opts = append(opts, ffq.WithInstrumentation())
	}
	if b.opts.OpLatency {
		opts = append(opts, ffq.WithOpLatency())
	}
	if b.opts.StallThreshold > 0 {
		opts = append(opts, ffq.WithStallWatchdog(b.opts.StallThreshold))
	}
	q, err := ffq.NewShardedMPMC[msg](b.opts.TopicLanes, b.opts.TopicLaneDepth, opts...)
	if err != nil {
		return nil, err
	}
	t := &topic{
		name:      name,
		part:      part,
		display:   key.display(),
		nameBytes: []byte(name),
		q:         q,
		subs:      map[*sub]struct{}{},
	}
	if b.durable() {
		// Partitions get their own directories: DirName escapes '@' in
		// topic names, so "orders@3" here can never alias a classic
		// topic literally named "orders@3".
		dirName := wal.DirName(name)
		if part != wire.NoPartition {
			dirName += "@" + strconv.FormatUint(uint64(part), 10)
		}
		dir := filepath.Join(b.opts.DataDir, dirName)
		t.log, err = wal.Open(dir, wal.Options{
			SegmentBytes:   b.opts.SegmentBytes,
			Sync:           b.opts.Fsync,
			SyncInterval:   b.opts.FsyncInterval,
			RetentionBytes: b.opts.RetentionBytes,
			RetentionAge:   b.opts.RetentionAge,
			FsyncHist:      b.fsyncLat,
		})
		if err != nil {
			return nil, err
		}
		t.cursors, err = wal.OpenCursors(dir, b.opts.Fsync != wal.SyncOff)
		if err != nil {
			t.log.Close()
			return nil, err
		}
	}
	if b.opts.Instrument {
		t.lat = &obs.LatencyHist{}
	}
	b.topics[key] = t
	if b.opts.Instrument {
		name := b.opts.MetricsPrefix + "/topic/" + t.display
		expvarx.Register(name, expvarx.QueueInfo{
			Stats:    q.Stats,
			Len:      q.Len,
			Cap:      q.Cap(),
			LaneLens: func() []int { return q.LaneLens(nil) },
		})
	}
	return t, nil
}

// Topics returns the current topic display names — "name" for classic
// topics, "name@part" per partition (for inspection; the set only
// grows until shutdown).
func (b *Broker) Topics() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.topics))
	for k := range b.topics {
		out = append(out, k.display())
	}
	return out
}

// PartitionedTopics returns the base names of topics that exist here
// in partitioned form, sorted. This is what METADATA advertises:
// replicas poll it off the owners to discover which partition logs
// they should be following.
func (b *Broker) PartitionedTopics() []string {
	b.mu.Lock()
	seen := map[string]bool{}
	for k := range b.topics {
		if k.part != wire.NoPartition {
			seen[k.name] = true
		}
	}
	b.mu.Unlock()
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PartitionLog returns (creating on first use) the write-ahead log
// backing (topic, part) on this node. It is the replication hook: the
// cluster follower copies the owner's records into this log with
// AppendAt, and local replay subscriptions serve from it. Requires a
// durable broker.
func (b *Broker) PartitionLog(topic string, part uint32) (*wal.Log, error) {
	if !b.durable() {
		return nil, errors.New("broker: partition logs require a data dir")
	}
	if part == wire.NoPartition {
		return nil, errors.New("broker: partition log needs an explicit partition")
	}
	t, err := b.getTopic(topic, part)
	if err != nil {
		return nil, err
	}
	return t.log, nil
}

// meta builds the METADATA answer: the static cluster shape (zero
// values when standalone) plus the partitioned topics present here.
func (b *Broker) meta() wire.MetaResp {
	var m wire.MetaResp
	if cl := b.opts.Cluster; cl != nil {
		m.NodeID = cl.NodeID
		m.Partitions = cl.Partitions
		m.Replication = cl.Replication
		m.Nodes = make([]wire.NodeMeta, len(cl.Peers))
		for i, p := range cl.Peers {
			m.Nodes[i] = wire.NodeMeta{ID: p.ID, Addr: p.Addr}
		}
	}
	m.Topics = b.PartitionedTopics()
	return m
}

// checkPart enforces cluster addressing on one partition-qualified
// frame. Unpartitioned frames always pass (the classic namespace
// stays node-local), as does everything on a standalone broker, where
// a partition id is just a namespace. On a clustered broker the
// partition must exist, and the node must hold it: as owner for
// produce and live consume (needOwner), as owner or replica for
// replay and offset queries — replicas serve reads of whatever their
// follower has copied so far.
func (b *Broker) checkPart(name string, part uint32, needOwner bool) error {
	cl := b.opts.Cluster
	if part == wire.NoPartition || cl == nil {
		return nil
	}
	if part >= cl.Partitions {
		return &wireError{
			code: wire.ECodeBadPartition, detail: uint64(cl.Partitions),
			msg: "broker: partition " + strconv.FormatUint(uint64(part), 10) +
				" out of range (" + strconv.FormatUint(uint64(cl.Partitions), 10) + " partitions)",
		}
	}
	if needOwner {
		if !cl.Owns(name, part) {
			return &wireError{
				code: wire.ECodeNotOwner, detail: uint64(part),
				msg: "broker: node " + cl.NodeID + " does not own " + topicKey{name, part}.display() +
					" (owner: " + cl.Owner(name, part).ID + ")",
			}
		}
	} else if !cl.Holds(name, part) {
		return &wireError{
			code: wire.ECodeNotOwner, detail: uint64(part),
			msg: "broker: node " + cl.NodeID + " does not hold " + topicKey{name, part}.display() +
				" (owner: " + cl.Owner(name, part).ID + ")",
		}
	}
	return nil
}

// Metrics returns a pointer to the broker's live counters.
func (b *Broker) Metrics() *Metrics { return &b.m }

// Shutdown drains the broker: no new connections, readers unblocked,
// staged batches flushed into their topics, topics closed, every
// subscription drained to its end-of-stream marker. ctx bounds the
// subscriber drain (slow or credit-starved consumers); on expiry the
// remaining subscriptions are force-stopped and ctx.Err() is returned.
func (b *Broker) Shutdown(ctx context.Context) error {
	if !b.closing.CompareAndSwap(false, true) {
		return nil
	}
	close(b.draining)

	b.mu.Lock()
	ln := b.ln
	conns := make([]*conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	// Wake every reader; with closing set they switch to drain mode —
	// PRODUCE cut off (ingress closed), CREDIT and PING still served so
	// consumers can keep replenishing their windows during the drain.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	// Pumps flush the staged batches and exit; after this no producer
	// touches any topic queue or appends to any log. The shared-memory
	// scanner and segment pumps exit on the same draining signal —
	// their segments stay on disk with anything not yet pumped.
	b.pumpWG.Wait()
	b.shmWG.Wait()

	b.mu.Lock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	// Seal the write-ahead logs before closing the topics: everything
	// the pumps acknowledged reaches stable storage and the consumer
	// cursors are persisted, whatever the fsync policy — and sealing
	// wakes parked replay followers so the drain below can reach them.
	for _, t := range topics {
		if t.log != nil {
			t.log.Seal()
		}
		if t.cursors != nil {
			t.cursors.Flush()
		}
	}
	for _, t := range topics {
		t.q.Close()
	}

	// Subscriptions drain their topics (credit-gated) and finish with
	// ACK+FlagEnd; bound the wait with ctx.
	done := make(chan struct{})
	go func() {
		b.deliverWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		for _, t := range topics {
			t.mu.Lock()
			for s := range t.subs {
				s.stop.Store(true)
			}
			t.mu.Unlock()
		}
		<-done
	}

	// Closing the sockets ends the drain-mode readers.
	for _, c := range conns {
		c.nc.Close()
	}
	b.readWG.Wait()
	b.retainWG.Wait()
	for _, t := range topics {
		if t.log != nil {
			t.log.Close()
		}
	}
	if b.opts.Instrument {
		expvarx.UnregisterCollector(b.opts.MetricsPrefix)
		for _, t := range topics {
			expvarx.Unregister(b.opts.MetricsPrefix + "/topic/" + t.display)
		}
	}
	return err
}
