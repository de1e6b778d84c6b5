package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ffq"
	"ffq/internal/broker"
	"ffq/internal/shm"
	"ffq/internal/wal"
	"ffq/internal/wire"
)

// probeRounds is how many timed rounds each probe runs; it reports the
// median round.
const probeRounds = 5

// coreProbeTime is how long the core probe's instrumented SPMC pair
// runs on workloads whose measured run is not that pair.
const coreProbeTime = 300 * time.Millisecond

// brokerProbeTime is how long the broker probe (a traced pubsub-burst
// session) runs on workloads without a broker; genProbeTime is how long
// the generator probe runs on workloads without an open-loop schedule.
const (
	brokerProbeTime = time.Second
	genProbeTime    = time.Second
)

// probes holds the layer probes' results. Each probe drives one layer
// alone, single-threaded unless noted, at the batch sizes the traced
// run realized, so its ns per message can be set against the
// end-to-end CPU per message.
type probes struct {
	InBatch   int `json:"in_batch"`
	OutBatch  int `json:"out_batch"`
	LaneBatch int `json:"lane_batch"`
	// LaneBatchSource says where LaneBatch came from: the log's records
	// or the PRODUCE frames.
	LaneBatchSource string `json:"lane_batch_source"`

	Core map[string]float64 `json:"core,omitempty"`
	// Broker holds the broker, socket and client counters of a short
	// traced pubsub-burst session, for workloads that run no broker.
	Broker map[string]float64 `json:"broker,omitempty"`
	// GenLateP99 is the open-loop generator's lateness p99 (ns) running
	// alone, for workloads without a schedule of their own.
	GenLateP99 float64 `json:"gen_late_p99_ns,omitempty"`

	LanesEnqNS float64 `json:"lanes_enqueue_ns_per_msg"`
	LanesDeqNS float64 `json:"lanes_dequeue_ns_per_msg"`

	WireEncProduceNS float64 `json:"wire_encode_produce_ns_per_msg"`
	WireEncDeliverNS float64 `json:"wire_encode_deliver_ns_per_msg"`
	WireDecProduceNS float64 `json:"wire_decode_produce_ns_per_msg"`
	WireDecDeliverNS float64 `json:"wire_decode_deliver_ns_per_msg"`
	// IngressAllocs counts heap allocations per PRODUCE frame on the
	// broker's ingress path (reader, pump, ACK).
	IngressAllocs float64 `json:"ingress_allocs_per_frame"`

	WALAppendNS    float64 `json:"wal_append_ns_per_msg"`
	WALBytesPerMsg float64 `json:"wal_bytes_per_msg"`
	// WALWriteNS is a plain file write of records the size Append
	// writes; WALAppendNS minus it is what Append adds to the write.
	WALWriteNS float64 `json:"wal_raw_write_ns_per_msg"`

	ShmPubNS       float64 `json:"shm_publish_ns_per_msg"`
	ShmDrainNS     float64 `json:"shm_drain_ns_per_msg"`
	ShmDrainAllocs float64 `json:"shm_drain_allocs_per_msg"`
}

// batchOf rounds a realized batch size to a probe batch (0 stays 0).
func batchOf(v float64) int {
	return min(int(math.Round(v)), 1024)
}

// runProbes runs every layer probe at the batch sizes r realized.
func runProbes(cfg *config, r *runResult) (*probes, error) {
	var brokerLayer map[string]float64
	// batches is the run whose realized batch sizes the lanes, wire,
	// WAL and shm probes use.
	batches := r
	if _, ok := r.layer["broker.ingress_batch"]; !ok {
		b, err := runBroker(cfg, burstKind, brokerProbeTime, newTracer(1<<12))
		if err != nil {
			return nil, fmt.Errorf("broker probe: %w", err)
		}
		if b.failed != 0 {
			return nil, errors.New("broker probe: messages failed the checks")
		}
		brokerLayer = b.layer
		batches = b
	}
	p := &probes{
		Broker:          brokerLayer,
		InBatch:         max(batchOf(batches.ingressBatch), 1),
		OutBatch:        max(batchOf(batches.egressBatch), 1),
		LaneBatch:       max(batchOf(batches.probeBatch), 1),
		LaneBatchSource: "PRODUCE frames",
	}
	if batches.walBatch > 0 {
		p.LaneBatchSource = "WAL records"
	}
	if _, ok := r.layer["core.enqueue_ns"]; !ok {
		pair, err := spmcRuns(cfg.seed, coreProbeTime, true, nil)
		if err != nil {
			return nil, err
		}
		if pair.failures != 0 {
			return nil, errors.New("core probe: the SPMC pair delivered wrong items")
		}
		p.Core = pair.coreMetrics()
	}
	if r.lateP99 == 0 {
		p.GenLateP99 = probeGenerator(cfg.seed, genProbeTime)
	}
	var err error
	if p.LanesEnqNS, p.LanesDeqNS, err = probeLanes(p.LaneBatch, p.OutBatch); err != nil {
		return nil, err
	}
	p.probeWire()
	if p.IngressAllocs, err = probeIngressAllocs(p.InBatch); err != nil {
		return nil, fmt.Errorf("ingress probe: %w", err)
	}
	if err := p.probeWAL(filepath.Join(cfg.workDir, "probe-wal")); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := p.probeShm(filepath.Join(cfg.workDir, "probe-shm")); err != nil {
		return nil, fmt.Errorf("shm probe: %w", err)
	}
	return p, nil
}

// probeGenerator runs the open-loop generator's schedule alone, at
// pacedRate for d, and returns its lateness p99 (ns): the timer floor
// of this host.
func probeGenerator(seed uint64, d time.Duration) float64 {
	rng := rand.New(rand.NewPCG(seed, 0x70616365))
	due := nowNS()
	end := due + int64(d)
	var late []int64
	for due < end {
		due += int64(rng.ExpFloat64() * float64(time.Second) / pacedRate)
		if wait := due - nowNS(); wait > 0 {
			sleepPrecise(time.Duration(wait))
		}
		late = append(late, nowNS()-due)
	}
	return quantile(sortInt64(late), 0.99)
}

// perMsgNS calls fn reps times per round (each call handles msgs
// messages) and returns the median round's nanoseconds per message.
func perMsgNS(msgs, reps int, fn func()) float64 {
	vs := make([]float64, probeRounds)
	for i := range vs {
		t0 := time.Now()
		for j := 0; j < reps; j++ {
			fn()
		}
		vs[i] = float64(time.Since(t0).Nanoseconds()) / float64(msgs*reps)
	}
	return median(vs)
}

// probePayloads returns n seeded 64-byte payloads.
func probePayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, payloadSize)
		fillPayload(out[i], 1, uint64(i))
	}
	return out
}

// laneMsg has the shape of the broker's queued message: a payload and
// an ingress timestamp.
type laneMsg struct {
	payload   []byte
	ingressNS int64
}

// probeLanes times a topic's sharded queue alone: EnqueueBatch of batch
// messages on an exclusive lane, then TryDequeueBatch of up to out
// messages until it is empty, with the broker's default lane geometry.
func probeLanes(batch, out int) (enq, deq float64, err error) {
	const reps = 200
	depth := broker.DefaultTopicLaneDepth
	q, err := ffq.NewShardedMPMC[laneMsg](broker.DefaultTopicLanes, depth)
	if err != nil {
		return 0, 0, err
	}
	h, ok := q.AcquireProducer()
	if !ok {
		return 0, 0, errors.New("lanes probe: no producer lane")
	}
	defer h.Release()
	payload := make([]byte, payloadSize)
	in := make([]laneMsg, batch)
	for i := range in {
		in[i] = laneMsg{payload: payload}
	}
	dst := make([]laneMsg, out)
	k := max(1, depth/batch)
	var enqVs, deqVs []float64
	for round := 0; round < probeRounds; round++ {
		var enqNS, deqNS int64
		for rep := 0; rep < reps; rep++ {
			t0 := nowNS()
			for i := 0; i < k; i++ {
				h.EnqueueBatch(in)
			}
			t1 := nowNS()
			for got, empty := 0, 0; got < k*batch; {
				n := q.TryDequeueBatch(dst)
				if n == 0 {
					if empty++; empty > 1e6 {
						return 0, 0, errors.New("lanes probe: enqueued messages never became visible")
					}
				}
				got += n
			}
			t2 := nowNS()
			enqNS += t1 - t0
			deqNS += t2 - t1
		}
		msgs := float64(reps * k * batch)
		enqVs = append(enqVs, float64(enqNS)/msgs)
		deqVs = append(deqVs, float64(deqNS)/msgs)
	}
	return median(enqVs), median(deqVs), nil
}

// payloadSink keeps the wire probe's decoded payloads live, as the
// readers that stage or hand them on would.
var payloadSink [][]byte

// decodeFrame decodes one PRODUCE or DELIVER frame with the wire codec
// the way both readers do: Next, ParseProduce, CopyMessages.
func decodeFrame(rd *wire.Reader, br *bytes.Reader, frame []byte) {
	br.Reset(frame)
	f, err := rd.Next()
	if err != nil {
		panic(err) // the probe encoded the frame itself
	}
	p, err := wire.ParseProduce(f)
	if err != nil {
		panic(err)
	}
	payloadSink = wire.CopyMessages(&p.Batch)
}

// probeWire times PRODUCE encoding (client) and decoding (broker reader)
// at InBatch, and DELIVER encoding (broker) and decoding (client) at
// OutBatch.
func (p *probes) probeWire() {
	const reps = 2000
	payloads := probePayloads(max(p.InBatch, p.OutBatch))
	topic := []byte(topicName)
	var buf wire.Buffer
	var br bytes.Reader
	rd := wire.NewReader(&br)
	p.WireEncDeliverNS = perMsgNS(p.OutBatch, reps, func() {
		buf.Reset()
		buf.PutProduce(wire.FlagDeliver, topic, wire.NoPartition, payloads[:p.OutBatch])
	})
	deliver := append([]byte(nil), buf.Bytes()...)
	p.WireDecDeliverNS = perMsgNS(p.OutBatch, reps, func() { decodeFrame(rd, &br, deliver) })
	p.WireEncProduceNS = perMsgNS(p.InBatch, reps, func() {
		buf.Reset()
		buf.PutProduce(0, topic, wire.NoPartition, payloads[:p.InBatch])
	})
	produce := append([]byte(nil), buf.Bytes()...)
	p.WireDecProduceNS = perMsgNS(p.InBatch, reps, func() { decodeFrame(rd, &br, produce) })
}

// probeIngressAllocs feeds PRODUCE frames of batch messages to an
// in-memory broker through ServeConn over net.Pipe, reads its ACKs, and
// returns the heap allocations per frame from the first frame's write
// to the last frame's ACK: the broker's reader (decode and staged
// copy), its pump and its ACK writes. No subscriber runs; the topic's
// single lane is deep enough to hold every message. One warm-up frame
// creates the topic first.
func probeIngressAllocs(batch int) (float64, error) {
	const depth = 1 << 14
	frames := min(4096, depth/batch-1)
	b, err := broker.New(broker.Options{TopicLanes: 1, TopicLaneDepth: depth})
	if err != nil {
		return 0, err
	}
	cli, srv := net.Pipe()
	b.ServeConn(srv)
	var acked atomic.Uint64
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		rd := wire.NewReader(cli)
		for {
			f, err := rd.Next()
			if err != nil {
				return
			}
			if f.Type == wire.TAck {
				if _, _, seq, err := wire.ParseAck(f); err == nil {
					acked.Store(seq)
				}
			}
		}
	}()
	defer func() {
		cli.Close()
		<-readDone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b.Shutdown(ctx)
		cancel()
	}()

	var buf wire.Buffer
	buf.PutProduce(0, []byte(topicName), wire.NoPartition, probePayloads(batch))
	frame := buf.Bytes()
	// send writes n frames and waits until the cumulative ACK reaches
	// want messages.
	send := func(n int, want uint64) error {
		for i := 0; i < n; i++ {
			if _, err := cli.Write(frame); err != nil {
				return err
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for acked.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("broker acknowledged %d of %d messages", acked.Load(), want)
			}
			runtime.Gosched()
		}
		return nil
	}
	if err := send(1, uint64(batch)); err != nil {
		return 0, err
	}
	f0, a0 := b.Metrics().ProduceFrames.Load(), mallocs()
	if err := send(frames, uint64(batch*(1+frames))); err != nil {
		return 0, err
	}
	a1, f1 := mallocs(), b.Metrics().ProduceFrames.Load()
	return float64(a1-a0) / float64(max(f1-f0, 1)), nil
}

// probeWAL appends LaneBatch-message batches to a fresh log (fsync off,
// the workloads' segment and retention settings), then writes records
// of the same size to a plain file: the difference is what Append does
// beyond the write (encoding the batch again, its CRC, the index).
func (p *probes) probeWAL(dir string) error {
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentBytes: walSegmentBytes, RetentionBytes: walRetentionBytes})
	if err != nil {
		return err
	}
	payloads := probePayloads(p.LaneBatch)
	reps := max(1, 20000/p.LaneBatch)
	var appendErr error
	p.WALAppendNS = perMsgNS(p.LaneBatch, reps, func() {
		if _, err := l.Append(payloads); err != nil {
			appendErr = err
		}
	})
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	if st.Next <= st.Oldest {
		return errors.New("log retained no messages")
	}
	p.WALBytesPerMsg = float64(st.Bytes) / float64(st.Next-st.Oldest)

	f, err := os.Create(filepath.Join(dir, "raw"))
	if err != nil {
		return err
	}
	defer f.Close()
	// Retention dropped nothing (the probe writes far less than it
	// keeps), so the log's bytes per message give Append's record size.
	rec := make([]byte, int(math.Round(p.WALBytesPerMsg*float64(p.LaneBatch))))
	var writeErr error
	p.WALWriteNS = perMsgNS(p.LaneBatch, reps, func() {
		if _, err := f.Write(rec); err != nil {
			writeErr = err
		}
	})
	return writeErr
}

// probeShm fills an shm segment with PublishBatch-sized batches and
// drains it, single-threaded, in TryDrain calls of LaneBatch: the drain
// size the broker's pump realized.
func (p *probes) probeShm(dir string) error {
	const reps = 50
	drainMax := p.LaneBatch
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.ffq")
	prod, err := shm.Create(path, topicName, payloadSize, shmCapacity)
	if err != nil {
		return err
	}
	defer prod.Detach()
	defer prod.Close()
	cons, err := shm.Attach(path)
	if err != nil {
		return err
	}
	defer cons.Detach()

	batch := probePayloads(shmBatch)
	dst := make([][]byte, 0, drainMax)
	k := shmCapacity/shmBatch - 1
	var pubNS, drainNS int64
	var allocs uint64
	var pubVs, drainVs []float64
	for round := 0; round < probeRounds; round++ {
		pubNS, drainNS, allocs = 0, 0, 0
		for rep := 0; rep < reps; rep++ {
			t0 := nowNS()
			for i := 0; i < k; i++ {
				if err := prod.EnqueueBatch(batch); err != nil {
					return err
				}
			}
			t1 := nowNS()
			a0 := mallocs()
			t2 := nowNS()
			for got := 0; got < k*shmBatch; {
				if dst, err = cons.TryDrain(dst[:0], drainMax); err != nil {
					return err
				}
				if len(dst) == 0 {
					return errors.New("published messages never became visible")
				}
				got += len(dst)
			}
			t3 := nowNS()
			allocs += mallocs() - a0
			pubNS += t1 - t0
			drainNS += t3 - t2
		}
		msgs := float64(reps * k * shmBatch)
		pubVs = append(pubVs, float64(pubNS)/msgs)
		drainVs = append(drainVs, float64(drainNS)/msgs)
		p.ShmDrainAllocs = float64(allocs) / msgs
	}
	p.ShmPubNS, p.ShmDrainNS = median(pubVs), median(drainVs)
	return nil
}

// layerMetrics assembles the per-layer metrics from the traced run's
// counters, the probes, and the traced-minus-untraced overhead.
func layerMetrics(base, traced *runResult, p *probes) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for k, v := range p.Core {
		out[k] = v
	}
	for k, v := range p.Broker {
		out[k] = v
	}
	for k, v := range traced.layer {
		out[k] = v
	}
	out["lanes.enqueue_ns_per_msg"] = p.LanesEnqNS
	out["lanes.dequeue_ns_per_msg"] = p.LanesDeqNS
	out["wire.encode_ns_per_msg"] = p.WireEncProduceNS + p.WireEncDeliverNS
	out["wire.decode_ns_per_msg"] = p.WireDecProduceNS + p.WireDecDeliverNS
	out["wire.decode_allocs_per_frame"] = p.IngressAllocs
	out["wal.append_ns_per_msg"] = p.WALAppendNS
	out["wal.append_over_write_ns_per_msg"] = p.WALAppendNS - p.WALWriteNS
	if _, ok := traced.layer["wal.bytes_per_msg"]; !ok {
		out["wal.bytes_per_msg"] = p.WALBytesPerMsg
	}
	out["shm.publish_ns_per_msg"] = p.ShmPubNS
	out["shm.drain_ns_per_msg"] = p.ShmDrainNS
	out["shm.drain_allocs_per_msg"] = p.ShmDrainAllocs
	out["gen.late_p99_us"] = max(traced.lateP99, p.GenLateP99) / 1e3
	out["trace.overhead_msgs_per_s"] = traced.msgsPerS() - base.msgsPerS()
	out["trace.overhead_cpu_us_per_msg"] = traced.cpuUSPerMsg() - base.cpuUSPerMsg()

	var attributed float64
	for _, layer := range traced.layers {
		switch layer {
		case "core":
			attributed += out["core.enqueue_ns"] + out["core.dequeue_ns"]
		case "staging":
			// One staging SPSC enqueue+dequeue per PRODUCE frame.
			attributed += (out["core.enqueue_ns"] + out["core.dequeue_ns"]) / float64(max(p.InBatch, 1))
		case "wire":
			attributed += p.WireEncProduceNS + p.WireDecProduceNS + p.WireEncDeliverNS + p.WireDecDeliverNS
		case "wire.deliver":
			attributed += p.WireEncDeliverNS + p.WireDecDeliverNS
		case "lanes":
			attributed += p.LanesEnqNS + p.LanesDeqNS
		case "socket":
			attributed += out["socket.write_ns"] * out["socket.writes_per_msg"]
		case "wal":
			attributed += p.WALAppendNS
		case "shm":
			attributed += p.ShmPubNS + p.ShmDrainNS
		}
	}
	if cpu := base.cpuUSPerMsg(); cpu > 0 {
		out["unattributed_cpu_share"] = 1 - attributed/(cpu*1e3)
	}
	return out
}
