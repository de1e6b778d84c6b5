package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ffq/internal/broker"
	"ffq/internal/broker/client"
	"ffq/internal/obs/expvarx"
	"ffq/internal/wal"
)

const (
	topicName = "bench"
	// pacedRate is pubsub-paced's mean Poisson arrival rate, msg/s.
	pacedRate = 2000
	// shmBatch is the shm-ingest producer's PublishBatch size, and
	// shmCapacity its ring capacity in messages.
	shmBatch    = 64
	shmCapacity = 4096
	// The durable workloads roll WAL segments at walSegmentBytes and
	// keep at most walRetentionBytes, so a run's disk footprint and page
	// cache stay bounded however fast it goes (fsync is off).
	walSegmentBytes   = 8 << 20
	walRetentionBytes = 32 << 20
	// drainIdle is how long the measured run waits without progress for
	// the last messages to arrive before counting them lost.
	drainIdle = 2 * time.Second
)

// kind describes one broker workload.
type kind struct {
	durable, shm, paced bool
	// maxBatch is the producer client's MaxBatch (TCP workloads).
	maxBatch int
	// sampleEvery is the latency sampling interval in messages.
	sampleEvery uint64
	// spanEvery is the traced run's span sampling interval in messages
	// for publish and receive calls; socket operations are sampled every
	// spanEvery/8 calls.
	spanEvery uint64
}

// env is one running broker with its two clients: a consumer
// connection subscribed to the topic, and either a TCP producer
// connection or an shm publisher.
type env struct {
	k        kind
	dir      string
	b        *broker.Broker
	ln       net.Listener
	acceptWG sync.WaitGroup
	cons     *client.Client
	sub      *client.Subscription
	prod     *client.Client
	shmPub   *client.ShmPublisher

	// Traced runs only: broker-side socket counters, and the spans the
	// producer and consumer goroutines have open.
	tr                 *tracer
	brokerSock         sockStats
	prodSpan, consSpan atomic.Uint64
}

var envSeq atomic.Uint64

// startEnv builds the system and moves message 0 through it: broker
// construction (WAL directory, shm segment adoption), listening,
// connecting, subscribing, the first publish and its Recv. It returns
// the time all of that took.
func startEnv(cfg *config, k kind, tr *tracer, chk *checker) (*env, time.Duration, error) {
	start := time.Now()
	n := envSeq.Add(1)
	e := &env{k: k, tr: tr, dir: filepath.Join(cfg.workDir, fmt.Sprintf("env%d", n))}
	if err := e.build(cfg, n); err != nil {
		e.close()
		return nil, 0, err
	}
	first := make([]byte, payloadSize)
	fillPayload(first, cfg.seed, 0)
	var err error
	if e.shmPub != nil {
		err = e.shmPub.Publish(first)
	} else if err = e.prod.Publish(topicName, first); err == nil {
		err = e.prod.Flush()
	}
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("first publish: %w", err)
	}
	p, ok := e.sub.Recv()
	if !ok {
		e.close()
		return nil, 0, fmt.Errorf("first message never arrived: %v", e.cons.Err())
	}
	chk.check(p)
	return e, time.Since(start), nil
}

func (e *env) build(cfg *config, n uint64) error {
	opts := broker.Options{}
	if e.k.durable {
		opts.DataDir = filepath.Join(e.dir, "data")
		opts.Fsync = wal.SyncOff
		opts.SegmentBytes = walSegmentBytes
		opts.RetentionBytes = walRetentionBytes
	}
	if e.k.shm {
		// The segment exists before the broker starts, so its first scan
		// adopts it.
		opts.ShmDir = filepath.Join(e.dir, "shm")
		if err := os.MkdirAll(opts.ShmDir, 0o755); err != nil {
			return err
		}
		var err error
		if e.shmPub, err = client.DialShm(opts.ShmDir, topicName, payloadSize, shmCapacity); err != nil {
			return err
		}
	}
	if e.tr != nil {
		opts.Instrument = true
		opts.MetricsPrefix = fmt.Sprintf("perfbench%d", n)
	}
	var err error
	if e.b, err = broker.New(opts); err != nil {
		return err
	}
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	e.acceptWG.Add(1)
	go e.accept(cfg.fault == "drop-deliver")

	consNC, err := e.dial("client.consumer", &e.consSpan)
	if err != nil {
		return err
	}
	e.cons = client.New(consNC, client.Options{})
	if e.sub, err = e.cons.Subscribe(topicName, 0); err != nil {
		return err
	}
	if !e.k.shm {
		prodNC, err := e.dial("client.producer", &e.prodSpan)
		if err != nil {
			return err
		}
		e.prod = client.New(prodNC, client.Options{MaxBatch: e.k.maxBatch})
	}
	return nil
}

// dial connects a client; traced runs wrap the client's side of the
// socket in a span recorder.
func (e *env) dial(name string, parent *atomic.Uint64) (net.Conn, error) {
	nc, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil || e.tr == nil {
		return nc, err
	}
	return &tracedConn{Conn: nc, st: &sockStats{}, tr: e.tr, name: name, parent: parent, sampleEvery: max(1, int64(e.k.spanEvery/8))}, nil
}

// accept hands every accepted connection to the broker through
// ServeConn, wrapped for counting (traced runs) or fault injection.
func (e *env) accept(dropDeliver bool) {
	defer e.acceptWG.Done()
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			return
		}
		if e.tr != nil {
			nc = &tracedConn{Conn: nc, st: &e.brokerSock, tr: e.tr, name: "broker.conn", sampleEvery: max(1, int64(e.k.spanEvery/8))}
		}
		if dropDeliver {
			nc = &faultConn{Conn: nc, dropAt: 3}
		}
		e.b.ServeConn(nc)
	}
}

// shutdown drains the broker: the subscription receives everything
// left and then its end-of-stream marker.
func (e *env) shutdown() error {
	var err error
	if e.b != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = e.b.Shutdown(ctx)
		cancel()
		e.b = nil
	}
	if e.ln != nil {
		e.ln.Close()
	}
	e.acceptWG.Wait()
	return err
}

// close shuts the broker down if that has not happened yet, closes the
// clients and removes the run's files. A consumer that must see the
// end-of-stream marker reads it between shutdown and close: closing
// the client first would race the marker.
func (e *env) close() error {
	err := e.shutdown()
	if e.cons != nil {
		e.cons.Close()
	}
	if e.prod != nil {
		e.prod.Close()
	}
	if e.shmPub != nil {
		e.shmPub.Close()
	}
	os.RemoveAll(e.dir)
	return err
}

// producerStats is what the producer goroutine observed.
type producerStats struct {
	published uint64 // next sequence number; message 0 is the set-up one
	errors    int64
	// late holds open-loop lateness samples taken while measuring, at
	// their send times.
	late, lateAt []int64
	pubNS        int64 // traced: total time inside Publish/PublishBatch
	pubCalls     int64
	pubSample    []int64 // traced: every 16th call's duration, ns
	drain        time.Duration
}

// consumerStats is what the consumer goroutine observed.
type consumerStats struct {
	received int64
	errors   int64
	// lat holds latency samples taken while measuring, at their
	// receive times.
	lat, at []int64
	recvNS  int64 // traced: total time blocked in Recv
}

// runBroker runs one broker workload: set-up rounds, then the measured
// instance with one producer and one consumer goroutine.
func runBroker(cfg *config, k kind, d time.Duration, tr *tracer) (*runResult, error) {
	r := &runResult{failures: map[string]int64{}}
	rounds := setupRounds
	if tr != nil {
		rounds = 1
	}
	for i := 0; i < rounds-1; i++ {
		chk := &checker{seed: cfg.seed}
		e, took, err := startEnv(cfg, k, nil, chk)
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", i, err)
		}
		if err := e.close(); err != nil {
			return nil, err
		}
		chk.finish(1)
		r.setup = append(r.setup, took.Seconds())
		r.attempted++
		r.failed += chk.failures()
		chk.record(r.failures)
	}

	a0 := mallocs()
	chk := &checker{seed: cfg.seed}
	e, took, err := startEnv(cfg, k, tr, chk)
	if err != nil {
		return nil, err
	}
	r.setup = append(r.setup, took.Seconds())
	m := &meter{}
	m.delivered.Store(1)
	ring := newStampRing(1 << 14)
	var ps producerStats
	cs := consumerStats{received: 1}
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		e.produce(cfg.seed, m, ring, &ps)
	}()
	consDone := make(chan struct{})
	go func() {
		defer close(consDone)
		e.consume(chk, m, ring, &cs)
	}()
	r.windows = m.measure(warmUp, d, windowsFor(d))
	<-prodDone
	tailStart := time.Now()
	// Wait for the tail: every published message, or no progress for
	// drainIdle (then the missing ones count as lost).
	last, lastMove := m.delivered.Load(), time.Now()
	for uint64(last) < ps.published && time.Since(lastMove) < drainIdle {
		time.Sleep(time.Millisecond)
		if cur := m.delivered.Load(); cur != last {
			last, lastMove = cur, time.Now()
		}
	}
	if k.shm {
		// shm publishes need no ACK: the producer's drain is the time its
		// last messages take to reach the consumer.
		ps.drain = time.Since(tailStart)
	}
	var layerErr error
	if tr != nil {
		r.layer, layerErr = e.layerCounters(&ps)
	}
	shutErr := e.shutdown()
	<-consDone
	if tr != nil && layerErr == nil && k.durable {
		// The log is closed now; its records are the batches the pump
		// appended and enqueued.
		r.walBatch, layerErr = walRecordBatch(filepath.Join(e.dir, "data", wal.DirName(topicName)))
	}
	e.close()
	if shutErr != nil {
		return nil, fmt.Errorf("broker shutdown: %w", shutErr)
	}
	if layerErr != nil {
		return nil, layerErr
	}
	if tr != nil {
		r.layer["client.recv_wait_ns"] = float64(cs.recvNS) / float64(max(cs.received, 1))
		if k.shm {
			// shm carries no PRODUCE frames: its ingress batch is the
			// pump's drain, which it appends to the log as one record.
			r.layer["broker.ingress_batch"] = r.walBatch
		}
		r.ingressBatch = r.layer["broker.ingress_batch"]
		r.egressBatch = r.layer["broker.egress_batch"]
	}
	r.allocs = mallocs() - a0
	r.rssMB = maxRSSMB()

	chk.finish(ps.published)
	r.delivered = cs.received
	r.attempted += int64(ps.published)
	r.failed += chk.failures() + ps.errors + cs.errors
	chk.record(r.failures)
	r.failures["publish_errors"] += ps.errors
	r.failures["recv_errors"] += cs.errors
	lat := byWindow(cs.at, cs.lat, m.bounds)
	if k.paced {
		lat = r.dropLateWindows(lat, byWindow(ps.lateAt, ps.late, m.bounds))
	}
	r.setLatency(lat)
	// The pumps append and enqueue one batch per PRODUCE frame or shm
	// drain: on durable workloads the log's records give its size.
	r.probeBatch = r.ingressBatch
	if k.durable {
		r.probeBatch = r.walBatch
	}
	r.layers = []string{"wire", "lanes", "socket", "staging"}
	if k.shm {
		r.layers = []string{"wire.deliver", "lanes", "socket", "shm"}
	}
	if k.durable {
		r.layers = append(r.layers, "wal")
	}
	return r, nil
}

// produce publishes until the meter says stop, then drains: the TCP
// producer waits for every ACK, the shm producer needs none.
func (e *env) produce(seed uint64, m *meter, ring *stampRing, ps *producerStats) {
	seq := uint64(1)
	defer func() { ps.published = seq }()
	if e.k.shm {
		e.produceShm(seed, m, ring, ps, &seq)
		return
	}
	buf := make([]byte, payloadSize)
	var rng *rand.Rand
	var due int64
	if e.k.paced {
		rng = rand.New(rand.NewPCG(seed, 0x70616365))
		due = nowNS()
	}
	//ffq:ignore spin-backoff not a spin loop: every iteration publishes, which sleeps (open loop) or blocks on the window
	for m.phase.Load() != phaseStop {
		var stamp int64
		if e.k.paced {
			// Open loop: message seq is due at its Poisson arrival time
			// whether or not the system kept up; latency counts from it.
			due += int64(rng.ExpFloat64() * float64(time.Second) / pacedRate)
			if wait := due - nowNS(); wait > 0 {
				sleepPrecise(time.Duration(wait))
			}
			stamp = due
			if m.phase.Load() == phaseMeasure {
				now := nowNS()
				ps.late = append(ps.late, now-due)
				ps.lateAt = append(ps.lateAt, now)
			}
		} else if seq%e.k.sampleEvery == 0 {
			stamp = nowNS()
		}
		fillPayload(buf, seed, seq)
		if stamp != 0 {
			ring.put(seq/e.k.sampleEvery, stamp)
		}
		var err error
		if e.tr == nil {
			err = e.prod.Publish(topicName, buf)
		} else {
			err = e.tracedPublish(ps, seq, 1, func() error { return e.prod.Publish(topicName, buf) })
		}
		if err != nil {
			ps.errors++
			return
		}
		seq++
	}
	t0 := time.Now()
	id := e.tr.begin("client.drain", 0)
	e.prodSpan.Store(id)
	if err := e.prod.Drain(); err != nil {
		ps.errors++
	}
	e.tr.end(id, e.b.Metrics().Acks.Load())
	ps.drain = time.Since(t0)
}

// sleepPrecise blocks the calling thread in nanosleep. time.Sleep
// wakes on the Go runtime's poll grid (about 1 ms when the process is
// otherwise idle), which would send open-loop messages in lockstep with
// the broker's own timer-driven polling; the generator must send at its
// scheduled instants instead.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// produceShm publishes shmBatch messages per PublishBatch call.
func (e *env) produceShm(seed uint64, m *meter, ring *stampRing, ps *producerStats, seq *uint64) {
	bufs := make([][]byte, shmBatch)
	for i := range bufs {
		bufs[i] = make([]byte, payloadSize)
	}
	//ffq:ignore spin-backoff not a spin loop: every iteration publishes a batch, which blocks while the ring is full
	for m.phase.Load() != phaseStop {
		now := nowNS()
		for i, b := range bufs {
			s := *seq + uint64(i)
			fillPayload(b, seed, s)
			if s%e.k.sampleEvery == 0 {
				ring.put(s/e.k.sampleEvery, now)
			}
		}
		var err error
		if e.tr == nil {
			err = e.shmPub.PublishBatch(bufs)
		} else {
			err = e.tracedPublish(ps, *seq, shmBatch, func() error { return e.shmPub.PublishBatch(bufs) })
		}
		if err != nil {
			ps.errors++
			return
		}
		*seq += shmBatch
	}
}

// tracedPublish times one publish call of n messages starting at seq,
// and records a span when the call carries a multiple of spanEvery.
func (e *env) tracedPublish(ps *producerStats, seq, n uint64, publish func() error) error {
	var id uint64
	if seq%e.k.spanEvery < n {
		id = e.tr.begin("client.publish", 0)
		e.prodSpan.Store(id)
	}
	t0 := nowNS()
	err := publish()
	took := nowNS() - t0
	e.tr.end(id, int64(seq))
	e.prodSpan.Store(0)
	ps.pubNS += took
	if ps.pubCalls%16 == 0 {
		ps.pubSample = append(ps.pubSample, took)
	}
	ps.pubCalls++
	return err
}

// consume receives until end-of-stream, checking every message and
// sampling latency from each sampled message's send (or, open loop,
// intended send) time.
func (e *env) consume(chk *checker, m *meter, ring *stampRing, cs *consumerStats) {
	every := e.k.sampleEvery
	//ffq:ignore spin-backoff not a spin loop: every iteration blocks in Recv
	for {
		var id uint64
		var t0 int64
		if e.tr != nil {
			if uint64(cs.received)%e.k.spanEvery == 0 {
				id = e.tr.begin("client.recv", 0)
				e.consSpan.Store(id)
			}
			t0 = nowNS()
		}
		p, ok := e.sub.Recv()
		now := nowNS()
		if e.tr != nil {
			cs.recvNS += now - t0
			e.tr.end(id, cs.received)
			e.consSpan.Store(0)
		}
		if !ok {
			break
		}
		cs.received++
		m.delivered.Store(cs.received)
		seq, ok := chk.check(p)
		if ok && seq%every == 0 && m.phase.Load() == phaseMeasure {
			if sent, ok := ring.get(seq / every); ok {
				cs.lat = append(cs.lat, now-sent)
				cs.at = append(cs.at, now)
			}
		}
	}
	if !e.sub.Ended() {
		cs.errors++ // the stream broke instead of ending cleanly
	}
}

// layerCounters reads the traced run's per-layer counters while the
// broker still runs: broker Metrics, the instrumented broker's
// exposition (residence histogram, WAL size) and the socket and
// producer timings.
func (e *env) layerCounters(ps *producerStats) (map[string]float64, error) {
	bm := e.b.Metrics()
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	msgs := max(bm.MsgsOut.Load(), 1)
	out := map[string]float64{
		"broker.ingress_batch":          ratio(bm.MsgsIn.Load(), bm.ProduceFrames.Load()),
		"broker.egress_batch":           ratio(bm.MsgsOut.Load(), bm.DeliverFrames.Load()),
		"broker.acks_per_produce_frame": ratio(bm.Acks.Load(), bm.ProduceFrames.Load()),
		"socket.bytes_in_per_msg":       ratio(e.brokerSock.bytesIn.Load(), msgs),
		"socket.bytes_out_per_msg":      ratio(e.brokerSock.bytesOut.Load(), msgs),
		"socket.reads_per_msg":          ratio(e.brokerSock.reads.Load(), msgs),
		"socket.writes_per_msg":         ratio(e.brokerSock.writes.Load(), msgs),
		"socket.write_ns":               ratio(e.brokerSock.writeNS.Load(), e.brokerSock.writes.Load()),
		"client.publish_ns":             ratio(ps.pubNS, ps.pubCalls),
		"client.publish_p99_ns":         quantile(sortInt64(ps.pubSample), 0.99),
		"client.drain_ms":               ps.drain.Seconds() * 1e3,
	}

	rec := httptest.NewRecorder()
	expvarx.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	samples, err := expvarx.Parse(rec.Body)
	if err != nil {
		return nil, fmt.Errorf("parse broker exposition: %w", err)
	}
	set := expvarx.NewSampleSet(samples)
	topic := map[string]string{"topic": topicName}
	p50, ok50 := residence(samples, set, 0.50)
	p99, ok99 := residence(samples, set, 0.99)
	if !ok50 || !ok99 {
		return nil, errors.New("broker exposition has no ffqd_e2e_latency_ns histogram")
	}
	out["broker.residence_p50_us"] = p50 / 1e3
	out["broker.residence_p99_us"] = p99 / 1e3
	if e.k.durable {
		bytes, okB := set.Value("ffqd_wal_bytes", topic)
		next, okN := set.Value("ffqd_wal_next_offset", topic)
		oldest, okO := set.Value("ffqd_wal_oldest_offset", topic)
		if !okB || !okN || !okO || next <= oldest {
			return nil, errors.New("broker exposition has no WAL size for the topic")
		}
		out["wal.bytes_per_msg"] = bytes / (next - oldest)
	}
	return out, nil
}

// walRecordBatch opens the closed log in dir and returns its mean
// number of messages per record, over the records retention kept. One
// Append writes one record, so this is the batch the pumps appended.
func walRecordBatch(dir string) (float64, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: walSegmentBytes})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	rd := l.NewReader(l.OldestOffset())
	defer rd.Close()
	var records, msgs int
	for {
		// A reader at a record's first offset yields exactly that record.
		_, got, err := rd.Next(math.MaxInt32)
		if err != nil {
			return 0, err
		}
		if len(got) == 0 {
			break
		}
		records++
		msgs += len(got)
	}
	if records == 0 {
		return 0, errors.New("the topic's log holds no records")
	}
	return float64(msgs) / float64(records), nil
}

// residence returns the q-quantile of the broker's residence histogram
// (ffqd_e2e_latency_ns), interpolated linearly inside the log2 bucket
// HistQuantile picks: the bucket's upper edge alone would report the
// same power of two on nearly every run.
func residence(samples []expvarx.Sample, set *expvarx.SampleSet, q float64) (float64, bool) {
	const name = "ffqd_e2e_latency_ns"
	ub, ok := set.HistQuantile(name, map[string]string{"topic": topicName}, q)
	if !ok {
		return 0, false
	}
	var lb, cumLB, cumUB, total float64
	for _, s := range samples {
		if s.Name != name+"_bucket" || s.Labels["topic"] != topicName {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		switch {
		case err != nil:
		case math.IsInf(le, 1):
			total = s.Value
		case le == ub:
			cumUB = s.Value
		case le < ub && le >= lb:
			lb, cumLB = le, s.Value
		}
	}
	if cumUB <= cumLB {
		return ub, true
	}
	return lb + (ub-lb)*(q*total-cumLB)/(cumUB-cumLB), true
}
