package broker

import (
	"sync/atomic"

	"ffq/internal/obs/expvarx"
)

// Metrics is the broker's own counter set — the data plane above the
// queues, which have their own obs.Recorder instrumentation. All
// fields are live atomics; read them with Load.
type Metrics struct {
	// ConnsOpen is the current connection count; ConnsTotal counts
	// every connection ever accepted.
	ConnsOpen  atomic.Int64
	ConnsTotal atomic.Int64
	// MsgsIn counts messages accepted from PRODUCE frames, MsgsOut
	// messages sent in DELIVER frames.
	MsgsIn  atomic.Int64
	MsgsOut atomic.Int64
	// ProduceFrames and DeliverFrames count wire frames, so
	// MsgsIn/ProduceFrames is the realized ingress batch size and
	// MsgsOut/DeliverFrames the realized egress batch size.
	ProduceFrames atomic.Int64
	DeliverFrames atomic.Int64
	// Acks counts cumulative ACK frames written.
	Acks atomic.Int64
	// ProtoErrors counts connections dropped for protocol violations.
	ProtoErrors atomic.Int64
	// MsgsDropped counts messages from PRODUCE frames that arrived
	// after Shutdown's produce cutoff (discarded, never acknowledged).
	MsgsDropped atomic.Int64
	// ShmSegments is the number of shared-memory ingress segments
	// currently being served; ShmMsgs/ShmBytes count what the segment
	// pumps moved into topics; ShmAttachErrors counts segment files
	// refused by the fail-closed attach (or busy).
	ShmSegments     atomic.Int64
	ShmMsgs         atomic.Int64
	ShmBytes        atomic.Int64
	ShmAttachErrors atomic.Int64
}

// collect is the broker's expvarx.Collector: global counters plus
// per-topic gauges (subscriber count, outstanding credit, queue depth).
// The topic queues' own counters are exported separately through their
// expvarx.Register entries.
func (b *Broker) collect(emit func(expvarx.Sample)) {
	c := func(name, help string, v int64) {
		emit(expvarx.Sample{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	emit(expvarx.Sample{
		Name: "ffqd_connections", Help: "Currently open broker connections.",
		Type: "gauge", Value: float64(b.m.ConnsOpen.Load()),
	})
	c("ffqd_connections_total", "Connections accepted since start.", b.m.ConnsTotal.Load())
	c("ffqd_messages_in_total", "Messages accepted from PRODUCE frames.", b.m.MsgsIn.Load())
	c("ffqd_messages_out_total", "Messages sent in DELIVER frames.", b.m.MsgsOut.Load())
	c("ffqd_produce_frames_total", "PRODUCE frames accepted.", b.m.ProduceFrames.Load())
	c("ffqd_deliver_frames_total", "DELIVER frames sent.", b.m.DeliverFrames.Load())
	c("ffqd_acks_total", "Cumulative ACK frames written.", b.m.Acks.Load())
	c("ffqd_protocol_errors_total", "Connections dropped for protocol violations.", b.m.ProtoErrors.Load())
	c("ffqd_messages_dropped_total", "Messages discarded after the shutdown produce cutoff.", b.m.MsgsDropped.Load())
	if b.opts.ShmDir != "" {
		emit(expvarx.Sample{
			Name: "ffqd_shm_segments", Help: "Shared-memory ingress segments currently served.",
			Type: "gauge", Value: float64(b.m.ShmSegments.Load()),
		})
		c("ffqd_shm_messages_total", "Messages pumped from shared-memory segments into topics.", b.m.ShmMsgs.Load())
		c("ffqd_shm_bytes_total", "Payload bytes pumped from shared-memory segments.", b.m.ShmBytes.Load())
		c("ffqd_shm_attach_errors_total", "Segment files refused by the fail-closed attach.", b.m.ShmAttachErrors.Load())
		for topic, depth := range b.ShmTopicDepths() {
			emit(expvarx.Sample{
				Name: "ffqd_shm_depth", Help: "Approximate unconsumed values per shared-memory segment topic.",
				Type: "gauge", Labels: map[string]string{"topic": topic}, Value: float64(depth),
			})
		}
	}

	b.mu.Lock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	emit(expvarx.Sample{
		Name: "ffqd_topics", Help: "Topics created since start.",
		Type: "gauge", Value: float64(len(topics)),
	})
	for _, t := range topics {
		var credit int64
		t.mu.Lock()
		subs := len(t.subs)
		for s := range t.subs {
			credit += s.credit.Load()
		}
		t.mu.Unlock()
		labels := map[string]string{"topic": t.display}
		emit(expvarx.Sample{
			Name: "ffqd_topic_subscribers", Help: "Active subscriptions per topic.",
			Type: "gauge", Labels: labels, Value: float64(subs),
		})
		emit(expvarx.Sample{
			Name: "ffqd_topic_credit", Help: "Outstanding delivery credit per topic (sum over subscriptions).",
			Type: "gauge", Labels: labels, Value: float64(credit),
		})
		emit(expvarx.Sample{
			Name: "ffqd_topic_depth", Help: "Messages queued per topic.",
			Type: "gauge", Labels: labels, Value: float64(t.q.Len()),
		})
		if t.lat != nil {
			expvarx.EmitLatencySamples(emit, "ffqd_e2e_latency_ns",
				"Broker residence time per message, PRODUCE decode to DELIVER encode, in nanoseconds.",
				labels, t.lat.Snapshot())
		}
		if t.log != nil {
			st := t.log.Stats()
			emit(expvarx.Sample{
				Name: "ffqd_wal_bytes", Help: "On-disk size of the topic's write-ahead log.",
				Type: "gauge", Labels: labels, Value: float64(st.Bytes),
			})
			emit(expvarx.Sample{
				Name: "ffqd_wal_oldest_offset", Help: "Oldest offset still retained in the topic's log.",
				Type: "gauge", Labels: labels, Value: float64(st.Oldest),
			})
			emit(expvarx.Sample{
				Name: "ffqd_wal_next_offset", Help: "Next offset the topic's log will assign.",
				Type: "gauge", Labels: labels, Value: float64(st.Next),
			})
			emit(expvarx.Sample{
				Name: "ffqd_wal_segments", Help: "Segment files retained in the topic's log.",
				Type: "gauge", Labels: labels, Value: float64(st.Segments),
			})
		}
	}
	if b.fsyncLat != nil {
		expvarx.EmitLatencySamples(emit, "ffqd_wal_fsync_ns",
			"WAL fsync latency in nanoseconds, aggregated over all topics.",
			nil, b.fsyncLat.Snapshot())
	}
}
