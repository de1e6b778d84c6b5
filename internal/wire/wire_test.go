package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRoundTrip encodes one frame of every type into a single flush
// and decodes them back in order.
func TestRoundTrip(t *testing.T) {
	topic := []byte("orders")
	msgs := [][]byte{[]byte("a"), []byte(""), []byte("hello world"), bytes.Repeat([]byte("x"), 300)}

	var b Buffer
	b.PutPing(0xdeadbeefcafe, false)
	b.PutProduce(0, topic, NoPartition, msgs)
	b.PutProduce(FlagDeliver, topic, NoPartition, msgs[:1])
	b.PutConsume(topic, NoPartition, 128)
	b.PutAck(0, topic, NoPartition, 42)
	b.PutAck(FlagEnd, topic, NoPartition, 99)
	b.PutCredit(topic, NoPartition, 64)
	b.PutErr("boom")

	r := NewReader(bytes.NewReader(b.Bytes()))

	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tok, err := ParsePing(f); err != nil || tok != 0xdeadbeefcafe || f.Flags&FlagPong != 0 {
		t.Fatalf("ping: %x %v flags=%x", tok, err, f.Flags)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProduce(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Topic) != "orders" || p.Part != NoPartition || p.N != len(msgs) {
		t.Fatalf("produce: topic=%q part=%d n=%d", p.Topic, p.Part, p.N)
	}
	for i := range msgs {
		m, ok := p.Next()
		if !ok || !bytes.Equal(m, msgs[i]) {
			t.Fatalf("msg %d: %q ok=%v", i, m, ok)
		}
	}
	if _, ok := p.Next(); ok {
		t.Fatal("iterator yielded past the batch")
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Flags&FlagDeliver == 0 {
		t.Fatal("deliver flag lost")
	}
	if p, err = ParseProduce(f); err != nil || p.N != 1 {
		t.Fatalf("deliver: %v n=%d", err, p.N)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if topic, part, credit, err := ParseConsume(f); err != nil || string(topic) != "orders" || part != NoPartition || credit != 128 {
		t.Fatalf("consume: %q %d %d %v", topic, part, credit, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if topic, part, seq, err := ParseAck(f); err != nil || string(topic) != "orders" || part != NoPartition || seq != 42 || f.Flags&FlagEnd != 0 {
		t.Fatalf("ack: %q %d %d %v flags=%x", topic, part, seq, err, f.Flags)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, seq, err := ParseAck(f); err != nil || seq != 99 || f.Flags&FlagEnd == 0 {
		t.Fatalf("end ack: %d %v flags=%x", seq, err, f.Flags)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if topic, part, n, err := ParseCredit(f); err != nil || string(topic) != "orders" || part != NoPartition || n != 64 {
		t.Fatalf("credit: %q %d %d %v", topic, part, n, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := ParseErr(f); err != nil || msg != "boom" {
		t.Fatalf("err frame: %q %v", msg, err)
	}

	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

// TestPartitionedRoundTrip covers the FlagPart forms of every
// topic-bearing frame: the partition id travels, the flag is set, and
// unpartitioned parsers of the same frames report NoPartition.
func TestPartitionedRoundTrip(t *testing.T) {
	topic := []byte("orders")
	group := []byte("billing")
	msgs := [][]byte{[]byte("k1"), []byte("k2")}
	const part = uint32(5)

	var b Buffer
	b.PutProduce(0, topic, part, msgs)
	b.PutConsume(topic, part, 32)
	b.PutConsumeFrom(topic, part, 16, 88, group, true)
	b.PutDeliverOffsets(topic, part, 700, msgs)
	b.PutAck(FlagOffset, topic, part, 9)
	b.PutCredit(topic, part, 11)
	b.PutOffsetsReq(topic, part, group)
	b.PutOffsetsResp(topic, part, 1, 2, 3)

	r := NewReader(bytes.NewReader(b.Bytes()))

	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Flags&FlagPart == 0 {
		t.Fatalf("produce flags = %x, FlagPart missing", f.Flags)
	}
	p, err := ParseProduce(f)
	if err != nil || string(p.Topic) != "orders" || p.Part != part || p.N != 2 {
		t.Fatalf("produce: topic=%q part=%d n=%d %v", p.Topic, p.Part, p.N, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, pt, credit, err := ParseConsume(f); err != nil || string(tp) != "orders" || pt != part || credit != 32 {
		t.Fatalf("consume: %q %d %d %v", tp, pt, credit, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ParseConsumeFrom(f)
	if err != nil || string(cf.Topic) != "orders" || cf.Part != part ||
		cf.Credit != 16 || cf.From != 88 || string(cf.Group) != "billing" || !cf.Strict {
		t.Fatalf("consume-from: %+v %v", cf, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	tp, pt, base, batch, err := ParseDeliverOffsets(f)
	if err != nil || string(tp) != "orders" || pt != part || base != 700 || batch.N != 2 {
		t.Fatalf("deliver-offsets: %q %d %d n=%d %v", tp, pt, base, batch.N, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, pt, seq, err := ParseAck(f); err != nil || string(tp) != "orders" || pt != part || seq != 9 {
		t.Fatalf("ack: %q %d %d %v", tp, pt, seq, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, pt, n, err := ParseCredit(f); err != nil || string(tp) != "orders" || pt != part || n != 11 {
		t.Fatalf("credit: %q %d %d %v", tp, pt, n, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, pt, g, err := ParseOffsetsReq(f); err != nil || string(tp) != "orders" || pt != part || string(g) != "billing" {
		t.Fatalf("offsets req: %q %d %q %v", tp, pt, g, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, pt, oldest, next, cursor, err := ParseOffsetsResp(f); err != nil ||
		string(tp) != "orders" || pt != part || oldest != 1 || next != 2 || cursor != 3 {
		t.Fatalf("offsets resp: %q %d %d %d %d %v", tp, pt, oldest, next, cursor, err)
	}
}

// TestPartitionFailClosed checks the partition field's rejection
// paths: a truncated field and the explicit NoPartition sentinel on
// the wire.
func TestPartitionFailClosed(t *testing.T) {
	t.Run("explicit-sentinel", func(t *testing.T) {
		// topic "t" + a 4-byte partition field carrying NoPartition.
		body := []byte{0, 1, 't', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 16}
		if _, _, _, err := ParseConsume(Frame{Type: TConsume, Flags: FlagPart, Body: body}); !errors.Is(err, ErrBadPartition) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated-part", func(t *testing.T) {
		body := []byte{0, 1, 't', 0, 0}
		if _, _, _, err := ParseConsume(Frame{Type: TConsume, Flags: FlagPart, Body: body}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("flagless-body-mismatch", func(t *testing.T) {
		// A partitioned CONSUME body parsed without FlagPart must fail:
		// the 4 partition bytes become trailing garbage after the credit.
		var b Buffer
		b.PutConsume([]byte("t"), 3, 16)
		f, err := NewReader(bytes.NewReader(b.Bytes())).Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ParseConsume(Frame{Type: TConsume, Flags: 0, Body: f.Body}); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestMetaRoundTrip covers the METADATA query and reply codec.
func TestMetaRoundTrip(t *testing.T) {
	want := MetaResp{
		NodeID:      "n1",
		Partitions:  8,
		Replication: 2,
		Nodes: []NodeMeta{
			{ID: "n1", Addr: "127.0.0.1:7077"},
			{ID: "n2", Addr: "127.0.0.1:7078"},
			{ID: "n3", Addr: "127.0.0.1:7079"},
		},
		Topics: []string{"orders", "audit"},
	}
	var b Buffer
	b.PutMetaReq()
	b.PutMetaResp(want)
	b.PutMetaResp(MetaResp{NodeID: "solo"}) // unclustered: no nodes, no topics

	r := NewReader(bytes.NewReader(b.Bytes()))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := ParseMetaReq(f); err != nil {
		t.Fatalf("meta req: %v", err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetaResp(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeID != want.NodeID || got.Partitions != want.Partitions || got.Replication != want.Replication ||
		len(got.Nodes) != len(want.Nodes) || len(got.Topics) != len(want.Topics) {
		t.Fatalf("meta resp: %+v", got)
	}
	for i, n := range want.Nodes {
		if got.Nodes[i] != n {
			t.Fatalf("node %d: %+v want %+v", i, got.Nodes[i], n)
		}
	}
	for i, tp := range want.Topics {
		if got.Topics[i] != tp {
			t.Fatalf("topic %d: %q want %q", i, got.Topics[i], tp)
		}
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseMetaResp(f); err != nil || got.NodeID != "solo" || got.Partitions != 0 || len(got.Nodes) != 0 {
		t.Fatalf("unclustered meta: %+v %v", got, err)
	}
}

// TestMetaFailClosed feeds the METADATA parser truncated and lying
// bodies.
func TestMetaFailClosed(t *testing.T) {
	var b Buffer
	b.PutMetaResp(MetaResp{NodeID: "n1", Partitions: 4, Replication: 2,
		Nodes: []NodeMeta{{ID: "n1", Addr: "a"}}, Topics: []string{"t"}})
	f, err := NewReader(bytes.NewReader(b.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	valid := f.Body

	t.Run("req-nonempty", func(t *testing.T) {
		if err := ParseMetaReq(Frame{Type: TMeta, Body: []byte{0}}); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("trailing", func(t *testing.T) {
		body := append(append([]byte(nil), valid...), 0xff)
		if _, err := ParseMetaResp(Frame{Type: TMeta, Flags: FlagReply, Body: body}); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated-everywhere", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := ParseMetaResp(Frame{Type: TMeta, Flags: FlagReply, Body: valid[:cut]}); err == nil {
				t.Fatalf("cut at %d parsed", cut)
			}
		}
	})
	t.Run("node-count-lies", func(t *testing.T) {
		// NodeID "" + partitions/replication + a node count the body
		// cannot fit.
		body := make([]byte, 2+4+4+2)
		binary.BigEndian.PutUint16(body[10:], 500)
		if _, err := ParseMetaResp(Frame{Type: TMeta, Flags: FlagReply, Body: body}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("node-count-over-limit", func(t *testing.T) {
		body := make([]byte, 2+4+4+2+4*(MaxNodes+1))
		binary.BigEndian.PutUint16(body[10:], MaxNodes+1)
		if _, err := ParseMetaResp(Frame{Type: TMeta, Flags: FlagReply, Body: body}); !errors.Is(err, ErrMetaTooLarge) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestErrCodeRoundTrip covers the typed ERR body: code + detail +
// text, and the lenient ParseErr view over it.
func TestErrCodeRoundTrip(t *testing.T) {
	var b Buffer
	b.PutErrCode(ECodeTruncated, 4096, "offset 100 truncated")
	b.PutErrCode(ECodeNotOwner, 3, "partition 3 owned by n2")
	b.PutErr("plain")

	r := NewReader(bytes.NewReader(b.Bytes()))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if code, detail, msg, err := ParseErrCode(f); err != nil || code != ECodeTruncated || detail != 4096 || msg != "offset 100 truncated" {
		t.Fatalf("err code: %d %d %q %v", code, detail, msg, err)
	}
	if msg, err := ParseErr(f); err != nil || msg != "offset 100 truncated" {
		t.Fatalf("lenient view: %q %v", msg, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if code, detail, _, err := ParseErrCode(f); err != nil || code != ECodeNotOwner || detail != 3 {
		t.Fatalf("not-owner: %d %d %v", code, detail, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if code, detail, msg, err := ParseErrCode(f); err != nil || code != ECodeGeneric || detail != 0 || msg != "plain" {
		t.Fatalf("generic: %d %d %q %v", code, detail, msg, err)
	}

	// A body shorter than the code+detail prefix fails closed.
	if _, _, _, err := ParseErrCode(Frame{Type: TErr, Body: make([]byte, errHeader-1)}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short err body: %v", err)
	}
}

// TestReaderFailClosed feeds the reader streams it must reject without
// panicking or over-reading.
func TestReaderFailClosed(t *testing.T) {
	frame := func(body []byte, typ, flags byte) []byte {
		out := make([]byte, headerSize+len(body))
		binary.BigEndian.PutUint32(out, uint32(len(body)+2))
		out[4], out[5] = typ, flags
		copy(out[headerSize:], body)
		return out
	}

	t.Run("length-too-small", func(t *testing.T) {
		raw := frame(nil, TPing, 0)
		binary.BigEndian.PutUint32(raw, 1)
		if _, err := NewReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrFrameTooSmall) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("length-too-large", func(t *testing.T) {
		raw := frame(nil, TPing, 0)
		binary.BigEndian.PutUint32(raw, MaxFrame+1)
		if _, err := NewReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader([]byte{0, 0})).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("truncated-body", func(t *testing.T) {
		raw := frame([]byte{1, 2, 3, 4, 5, 6, 7, 8}, TPing, 0)
		if _, err := NewReader(bytes.NewReader(raw[:len(raw)-3])).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("ping-trailing", func(t *testing.T) {
		f := Frame{Type: TPing, Body: make([]byte, 9)}
		if _, err := ParsePing(f); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("topic-over-limit", func(t *testing.T) {
		body := make([]byte, 2+MaxTopic+1)
		binary.BigEndian.PutUint16(body, MaxTopic+1)
		if _, _, _, err := ParseConsume(Frame{Type: TConsume, Body: body}); !errors.Is(err, ErrTopicTooLong) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("produce-count-lies", func(t *testing.T) {
		// Claims 1000 messages but carries bytes for none.
		body := make([]byte, 2+1+4)
		binary.BigEndian.PutUint16(body, 1)
		body[2] = 't'
		binary.BigEndian.PutUint32(body[3:], 1000)
		if _, err := ParseProduce(Frame{Type: TProduce, Body: body}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("produce-batch-over-limit", func(t *testing.T) {
		body := make([]byte, 2+4+4*(MaxBatch+1))
		binary.BigEndian.PutUint32(body[2:], MaxBatch+1)
		if _, err := ParseProduce(Frame{Type: TProduce, Body: body}); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("produce-msg-overruns", func(t *testing.T) {
		var b Buffer
		b.PutProduce(0, []byte("t"), NoPartition, [][]byte{[]byte("abc")})
		raw := b.Bytes()
		// Inflate the message length field past the body end.
		binary.BigEndian.PutUint32(raw[headerSize+2+1+4:], 1<<20)
		f, err := NewReader(bytes.NewReader(raw)).Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseProduce(f); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("produce-trailing", func(t *testing.T) {
		var b Buffer
		b.PutProduce(0, []byte("t"), NoPartition, [][]byte{[]byte("abc")})
		raw := frame(append(b.Bytes()[headerSize:], 0xff), TProduce, 0)
		f, err := NewReader(bytes.NewReader(raw)).Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseProduce(f); !errors.Is(err, ErrTrailingBytes) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("wrong-type", func(t *testing.T) {
		f := Frame{Type: TCredit, Body: make([]byte, 8)}
		if _, err := ParsePing(f); !errors.Is(err, ErrWrongType) {
			t.Fatalf("got %v", err)
		}
	})
}

// TestCopyMessages checks that copied batches survive the reader's
// buffer being clobbered by the next frame.
func TestCopyMessages(t *testing.T) {
	var b Buffer
	b.PutProduce(0, []byte("t"), NoPartition, [][]byte{[]byte("first"), []byte("second")})
	b.PutProduce(0, []byte("t"), NoPartition, [][]byte{bytes.Repeat([]byte("z"), 64)})

	r := NewReader(bytes.NewReader(b.Bytes()))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProduce(f)
	if err != nil {
		t.Fatal(err)
	}
	got := CopyMessages(&p.Batch)
	if _, err := r.Next(); err != nil { // clobbers the shared buffer
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("copies corrupted: %q", got)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("CopyMessages left the iterator unconsumed")
	}
}

// TestBatchClone checks that a cloned batch stays intact after the
// reader reuses its buffer for the next frame (one of the same size,
// so the bytes really are overwritten), that cloning costs one
// allocation, and that appending to a payload cannot spill into the
// next one.
func TestBatchClone(t *testing.T) {
	var b Buffer
	b.PutProduce(0, []byte("t"), NoPartition, [][]byte{[]byte("first"), []byte("second")})
	b.PutProduce(0, []byte("t"), NoPartition, [][]byte{[]byte("FIRST"), []byte("SECOND")})

	r := NewReader(bytes.NewReader(b.Bytes()))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProduce(f)
	if err != nil {
		t.Fatal(err)
	}
	owned := p.Batch.Clone()
	if allocs := testing.AllocsPerRun(10, func() { _ = p.Batch.Clone() }); allocs != 1 {
		t.Fatalf("Clone allocated %.1f times, want 1", allocs)
	}
	f2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &f2.Body[0] != &f.Body[0] {
		t.Fatal("the reader did not reuse its buffer; the test overwrites nothing")
	}
	if m, _ := p.Next(); string(m) != "FIRST" {
		t.Fatalf("the aliasing batch reads %q; the buffer was not overwritten", m)
	}
	first, _ := owned.Next()
	_ = append(first, "XXXXXXXX"...)
	second, _ := owned.Next()
	if string(first) != "first" || string(second) != "second" {
		t.Fatalf("clone corrupted: %q, %q", first, second)
	}
	if _, ok := owned.Next(); ok {
		t.Fatal("clone yielded more messages than the batch holds")
	}
}

// TestEncodersAllocationFree is the runtime counterpart of the
// //ffq:hotpath markers: a warmed Buffer must encode without
// allocating, in both the unpartitioned and partitioned forms.
func TestEncodersAllocationFree(t *testing.T) {
	topic := []byte("orders")
	msgs := [][]byte{bytes.Repeat([]byte("m"), 100), bytes.Repeat([]byte("n"), 100)}
	var b Buffer
	b.PutProduce(0, topic, NoPartition, msgs) // warm the buffer
	b.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		b.PutPing(1, true)
		b.PutProduce(0, topic, NoPartition, msgs)
		b.PutProduce(0, topic, 7, msgs)
		b.PutConsume(topic, NoPartition, 8)
		b.PutAck(0, topic, 7, 3)
		b.PutCredit(topic, 7, 4)
		b.PutDeliverOffsets(topic, 7, 100, msgs)
	})
	if allocs != 0 {
		t.Fatalf("warmed encoders allocated %.1f times per run", allocs)
	}
}

// TestEncoderPanics verifies the caller-bug guards.
func TestEncoderPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("%s did not panic", name)
			} else if !strings.HasPrefix(r.(string), "wire:") {
				t.Fatalf("%s panicked with %v", name, r)
			}
		}()
		fn()
	}
	var b Buffer
	long := make([]byte, MaxTopic+1)
	mustPanic("oversized topic", func() { b.PutCredit(long, NoPartition, 1) })
	mustPanic("oversized batch", func() { b.PutProduce(0, []byte("t"), NoPartition, make([][]byte, MaxBatch+1)) })
	mustPanic("oversized frame", func() {
		b.PutProduce(0, []byte("t"), NoPartition, [][]byte{make([]byte, MaxFrame)})
	})
	mustPanic("oversized node list", func() {
		b.PutMetaResp(MetaResp{Nodes: make([]NodeMeta, MaxNodes+1)})
	})
	mustPanic("oversized meta string", func() {
		b.PutMetaResp(MetaResp{NodeID: string(long)})
	})
}

// TestOffsetFramesRoundTrip covers the durable-topic frame forms:
// CONSUME-from, replay DELIVER with a base offset, the OFFSETS query
// and its reply, and the cursor-commit ACK.
func TestOffsetFramesRoundTrip(t *testing.T) {
	topic := []byte("orders")
	group := []byte("billing")
	msgs := [][]byte{[]byte("a"), []byte(""), bytes.Repeat([]byte("y"), 200)}

	var b Buffer
	b.PutConsumeFrom(topic, NoPartition, 64, 1234, group, false)
	b.PutConsumeFrom(topic, NoPartition, 8, OffsetCursor, nil, false)
	b.PutDeliverOffsets(topic, NoPartition, 900, msgs)
	b.PutOffsetsReq(topic, NoPartition, group)
	b.PutOffsetsResp(topic, NoPartition, 10, 5000, 4242)
	b.PutAck(FlagOffset, topic, NoPartition, 777)

	r := NewReader(bytes.NewReader(b.Bytes()))

	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ParseConsumeFrom(f)
	if err != nil || string(cf.Topic) != "orders" || cf.Part != NoPartition ||
		cf.Credit != 64 || cf.From != 1234 || string(cf.Group) != "billing" || cf.Strict {
		t.Fatalf("consume-from: %+v %v", cf, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cf, err := ParseConsumeFrom(f); err != nil || cf.Credit != 8 || cf.From != OffsetCursor || len(cf.Group) != 0 {
		t.Fatalf("consume-from cursor: %+v %v", cf, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Flags&FlagDeliver == 0 || f.Flags&FlagOffset == 0 {
		t.Fatalf("deliver flags = %x", f.Flags)
	}
	tp, part, base, batch, err := ParseDeliverOffsets(f)
	if err != nil || string(tp) != "orders" || part != NoPartition || base != 900 || batch.N != len(msgs) {
		t.Fatalf("deliver-offsets: %q %d %d n=%d %v", tp, part, base, batch.N, err)
	}
	for i := range msgs {
		m, ok := batch.Next()
		if !ok || !bytes.Equal(m, msgs[i]) {
			t.Fatalf("msg %d: %q ok=%v", i, m, ok)
		}
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, part, g, err := ParseOffsetsReq(f); err != nil || string(tp) != "orders" || part != NoPartition || string(g) != "billing" {
		t.Fatalf("offsets req: %q %d %q %v", tp, part, g, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, part, oldest, next, cursor, err := ParseOffsetsResp(f); err != nil ||
		string(tp) != "orders" || part != NoPartition || oldest != 10 || next != 5000 || cursor != 4242 {
		t.Fatalf("offsets resp: %q %d %d %d %d %v", tp, part, oldest, next, cursor, err)
	}

	f, err = r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tp, _, seq, err := ParseAck(f); err != nil || string(tp) != "orders" || seq != 777 || f.Flags&FlagOffset == 0 {
		t.Fatalf("cursor ack: %q %d %v flags=%x", tp, seq, err, f.Flags)
	}
}

// TestBatchCodecRoundTrip exercises the standalone batch body codec
// the WAL shares with PRODUCE frames.
func TestBatchCodecRoundTrip(t *testing.T) {
	msgs := [][]byte{[]byte("one"), nil, bytes.Repeat([]byte("q"), 100)}
	buf := make([]byte, BatchSize(msgs))
	if n := EncodeBatch(buf, msgs); n != len(buf) {
		t.Fatalf("EncodeBatch wrote %d of %d", n, len(buf))
	}
	b, err := ParseBatch(buf)
	if err != nil || b.N != len(msgs) {
		t.Fatalf("ParseBatch: n=%d %v", b.N, err)
	}
	for i := range msgs {
		m, ok := b.Next()
		if !ok || !bytes.Equal(m, msgs[i]) {
			t.Fatalf("msg %d: %q ok=%v", i, m, ok)
		}
	}
	// Trailing garbage after a valid batch must fail closed.
	if _, err := ParseBatch(append(append([]byte(nil), buf...), 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: %v", err)
	}
	// A truncated last payload must fail closed.
	if _, err := ParseBatch(buf[:len(buf)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
}

// TestParseConsumeFromErrors checks fail-closed paths of the durable
// CONSUME form.
func TestParseConsumeFromErrors(t *testing.T) {
	var b Buffer
	b.PutConsumeFrom([]byte("t"), NoPartition, 1, 2, []byte("g"), false)
	r := NewReader(bytes.NewReader(b.Bytes()))
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong flag: a classic CONSUME parser must reject the durable form
	// and vice versa.
	classic := Frame{Type: TConsume, Flags: 0, Body: f.Body}
	if _, err := ParseConsumeFrom(classic); !errors.Is(err, ErrWrongType) {
		t.Fatalf("flagless parse: %v", err)
	}
	if _, _, _, err := ParseConsume(f); err == nil {
		t.Fatal("classic parser accepted durable body")
	}
	// Truncated group field.
	trunc := Frame{Type: TConsume, Flags: FlagOffset, Body: f.Body[:len(f.Body)-1]}
	if _, err := ParseConsumeFrom(trunc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated group: %v", err)
	}
}

// stepReader replays a script of reads: each step either returns its
// bytes or fails with a deadline timeout, the way a net.Conn does when
// a read deadline fires while the rest of a frame is still in flight.
type stepReader struct{ steps [][]byte }

func (s *stepReader) Read(p []byte) (int, error) {
	if len(s.steps) == 0 {
		return 0, io.EOF
	}
	step := s.steps[0]
	if step == nil {
		s.steps = s.steps[1:]
		return 0, os.ErrDeadlineExceeded
	}
	n := copy(p, step)
	if s.steps[0] = step[n:]; len(s.steps[0]) == 0 {
		s.steps = s.steps[1:]
	}
	return n, nil
}

// TestReaderResumesAfterTimeout cuts one PRODUCE frame with a timeout
// inside the header, between header and body, and inside the body. In
// every case the next Next must resume the frame, not parse body bytes
// as a new header.
func TestReaderResumesAfterTimeout(t *testing.T) {
	var b Buffer
	b.PutProduce(0, []byte("orders"), NoPartition, [][]byte{[]byte("hello"), []byte("world")})
	b.PutPing(7, false)
	stream := append([]byte(nil), b.Bytes()...)
	for _, cut := range []int{3, headerSize, headerSize + 5} {
		r := NewReader(&stepReader{steps: [][]byte{stream[:cut], nil, stream[cut:]}})
		if _, err := r.Next(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("cut %d: first Next err = %v, want the timeout", cut, err)
		}
		f, err := r.Next()
		if err != nil {
			t.Fatalf("cut %d: resumed Next: %v", cut, err)
		}
		p, err := ParseProduce(f)
		if err != nil {
			t.Fatalf("cut %d: ParseProduce: %v", cut, err)
		}
		if string(p.Topic) != "orders" || p.N != 2 {
			t.Fatalf("cut %d: got topic %q n=%d", cut, p.Topic, p.N)
		}
		f, err = r.Next()
		if err != nil {
			t.Fatalf("cut %d: frame after the resumed one: %v", cut, err)
		}
		if tok, err := ParsePing(f); err != nil || tok != 7 {
			t.Fatalf("cut %d: ping = %d, %v", cut, tok, err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("cut %d: end of stream err = %v, want io.EOF", cut, err)
		}
	}
}
