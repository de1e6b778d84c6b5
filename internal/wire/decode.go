package wire

import (
	"encoding/binary"
	"io"
)

// Reader decodes frames from an io.Reader, reusing one internal
// buffer: at steady state a connection's read loop allocates nothing.
// The Body of a returned Frame aliases that buffer and is valid only
// until the next call to Next; callers that stage messages past the
// next read copy them out (see Batch.Clone).
//
// A Reader is not safe for concurrent use.
type Reader struct {
	r   io.Reader
	hdr [headerSize]byte
	buf []byte
	// hn and bn count the bytes of the current frame's header and body
	// read so far. They survive a failed read, so a read-deadline
	// timeout between (or inside) the two leaves the frame to be
	// resumed by the next Next instead of losing its header.
	hn, bn int
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads exactly one frame. It never reads past the declared frame
// length, so decode errors do not desynchronize the stream (they are
// terminal for the connection anyway). io.EOF is returned only at a
// clean frame boundary; EOF mid-frame is io.ErrUnexpectedEOF. After a
// read error — typically a deadline timeout — the next call resumes
// the partly read frame where the error left it.
func (r *Reader) Next() (Frame, error) {
	var f Frame
	if r.hn < headerSize {
		n, err := io.ReadFull(r.r, r.hdr[r.hn:])
		r.hn += n
		if err != nil {
			if err == io.EOF && r.hn > 0 {
				err = io.ErrUnexpectedEOF
			}
			return f, err // io.EOF here is a clean end of stream
		}
	}
	n := binary.BigEndian.Uint32(r.hdr[:4])
	if n < 2 {
		return f, ErrFrameTooSmall
	}
	if n > MaxFrame {
		return f, ErrFrameTooLarge
	}
	body := int(n) - 2
	if cap(r.buf) < body {
		r.buf = make([]byte, body)
	}
	buf := r.buf[:body]
	k, err := io.ReadFull(r.r, buf[r.bn:])
	r.bn += k
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return f, err
	}
	r.hn, r.bn = 0, 0
	f.Type = r.hdr[4]
	f.Flags = r.hdr[5]
	f.Body = buf
	return f, nil
}

// getTopic splits the leading `uint16 len | bytes` topic field off b.
func getTopic(b []byte) (topic, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxTopic {
		return nil, nil, ErrTopicTooLong
	}
	if len(b) < 2+n {
		return nil, nil, ErrTruncated
	}
	return b[2 : 2+n], b[2+n:], nil
}

// getPart splits the partition field off b when flags carries
// FlagPart; without it the frame addresses the unpartitioned topic
// (NoPartition) and b is untouched. An explicit on-wire NoPartition is
// rejected — it is the absence sentinel, never a valid id.
func getPart(flags byte, b []byte) (part uint32, rest []byte, err error) {
	if flags&FlagPart == 0 {
		return NoPartition, b, nil
	}
	if len(b) < 4 {
		return 0, nil, ErrTruncated
	}
	part = binary.BigEndian.Uint32(b)
	if part == NoPartition {
		return 0, nil, ErrBadPartition
	}
	return part, b[4:], nil
}

// getString splits a leading `uint16 len | bytes` metadata string off
// b, copying it out (metadata is cold path; the copy frees the frame
// buffer).
func getString(b []byte) (s string, rest []byte, err error) {
	if len(b) < 2 {
		return "", nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxTopic {
		return "", nil, ErrTopicTooLong
	}
	if len(b) < 2+n {
		return "", nil, ErrTruncated
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

// ParsePing returns the token of a PING frame.
func ParsePing(f Frame) (token uint64, err error) {
	if f.Type != TPing {
		return 0, ErrWrongType
	}
	if len(f.Body) < pingBody {
		return 0, ErrTruncated
	}
	if len(f.Body) > pingBody {
		return 0, ErrTrailingBytes
	}
	return binary.BigEndian.Uint64(f.Body), nil
}

// Batch is a validated message batch iterator over the wire's batch
// body encoding (`uint32 count` + count `uint32 len | payload`).
// ParseBatch walks the whole body up front, so Next never fails and
// never over-reads: after a nil error every message boundary is known
// to be in bounds and the body to have no trailing bytes. The WAL's
// record bodies use the same encoding and parse through the same path.
type Batch struct {
	// N is the number of messages Next will still yield.
	N    int
	rest []byte
}

// ParseBatch validates a batch body and returns its iterator. All
// yielded slices alias b.
func ParseBatch(b []byte) (Batch, error) {
	var p Batch
	if len(b) < 4 {
		return p, ErrTruncated
	}
	count := binary.BigEndian.Uint32(b)
	rest := b[4:]
	if count > MaxBatch {
		return p, ErrBatchTooLarge
	}
	// Each message costs at least its 4-byte length header, so a count
	// the remaining body cannot fit fails before the walk trusts it.
	if int64(count)*4 > int64(len(rest)) {
		return p, ErrTruncated
	}
	w := rest
	for i := uint32(0); i < count; i++ {
		if len(w) < 4 {
			return p, ErrTruncated
		}
		n := int(binary.BigEndian.Uint32(w))
		if n > len(w)-4 {
			return p, ErrTruncated
		}
		w = w[4+n:]
	}
	if len(w) != 0 {
		return p, ErrTrailingBytes
	}
	p.N = int(count)
	p.rest = rest
	return p, nil
}

// Next yields the next message payload (aliasing the parsed body) and
// reports whether one existed. It cannot fail: ParseBatch validated
// every boundary. The payload's capacity ends at its last byte, so an
// append to it reallocates instead of overwriting the next message.
func (p *Batch) Next() ([]byte, bool) {
	if p.N == 0 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(p.rest))
	m := p.rest[4 : 4+n : 4+n]
	p.rest = p.rest[4+n:]
	p.N--
	return m, true
}

// Clone returns p's remaining messages over one freshly allocated copy
// of their encoded bytes. The clone's payloads outlive the Reader's
// buffer, so a reader stages or hands on a whole batch for one
// allocation; every payload pins that copy while it is referenced.
func (p Batch) Clone() Batch {
	p.rest = append([]byte(nil), p.rest...)
	return p
}

// ProduceBody is a validated PRODUCE batch: the topic and partition
// plus the batch iterator.
type ProduceBody struct {
	// Topic aliases the frame body.
	Topic []byte
	// Part is the addressed partition (NoPartition without FlagPart).
	Part uint32
	Batch
}

// ParseProduce validates a PRODUCE (or DELIVER) frame and returns its
// batch iterator. All returned slices alias the frame body.
func ParseProduce(f Frame) (ProduceBody, error) {
	var p ProduceBody
	if f.Type != TProduce {
		return p, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return p, err
	}
	part, rest, err := getPart(f.Flags, rest)
	if err != nil {
		return p, err
	}
	b, err := ParseBatch(rest)
	if err != nil {
		return p, err
	}
	p.Topic = topic
	p.Part = part
	p.Batch = b
	return p, nil
}

// ParseDeliverOffsets validates a replay DELIVER frame
// (PRODUCE+FlagDeliver+FlagOffset) and returns the topic, partition,
// the offset of the batch's first message, and the batch iterator
// (message i has offset base+i).
func ParseDeliverOffsets(f Frame) (topic []byte, part uint32, base uint64, b Batch, err error) {
	if f.Type != TProduce || f.Flags&FlagOffset == 0 {
		return nil, 0, 0, b, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, 0, b, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, 0, b, err
	}
	if len(rest) < 8 {
		return nil, 0, 0, b, ErrTruncated
	}
	base = binary.BigEndian.Uint64(rest)
	b, err = ParseBatch(rest[8:])
	if err != nil {
		return nil, 0, 0, b, err
	}
	return topic, part, base, b, nil
}

// CopyMessages drains p's remaining messages into freshly owned
// storage: one arena allocation holds every payload and one slice
// header array points into it, two allocations regardless of batch
// size. The broker and the client stage batches with Clone instead;
// only the benchmark's decode probe still calls CopyMessages.
func CopyMessages(p *Batch) [][]byte {
	total := 0
	w := p.rest
	for i := 0; i < p.N; i++ {
		n := int(binary.BigEndian.Uint32(w))
		total += n
		w = w[4+n:]
	}
	out := make([][]byte, 0, p.N)
	arena := make([]byte, total)
	off := 0
	for {
		m, ok := p.Next()
		if !ok {
			return out
		}
		end := off + copy(arena[off:], m)
		out = append(out, arena[off:end:end])
		off = end
	}
}

// getGroup splits the trailing `uint16 len | bytes` group field off b;
// unlike getTopic it must consume b entirely.
func getGroup(b []byte) (group []byte, err error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > MaxGroup {
		return nil, ErrGroupTooLong
	}
	if len(b) < 2+n {
		return nil, ErrTruncated
	}
	if len(b) > 2+n {
		return nil, ErrTrailingBytes
	}
	return b[2 : 2+n], nil
}

// ConsumeFromBody is a validated durable CONSUME frame (FlagOffset
// set): a log-follower subscription.
type ConsumeFromBody struct {
	// Topic and Group alias the frame body.
	Topic []byte
	// Part is the addressed partition (NoPartition without FlagPart).
	Part uint32
	// Credit is the initial delivery window.
	Credit uint32
	// From is the replay start offset; OffsetCursor means resume from
	// Group's persisted cursor.
	From  uint64
	Group []byte
	// Strict reports FlagStrict: fail with ECodeTruncated instead of
	// clamping when retention has dropped From.
	Strict bool
}

// ParseConsumeFrom returns the fields of a durable CONSUME frame
// (FlagOffset set). Topic and Group alias the frame body.
func ParseConsumeFrom(f Frame) (ConsumeFromBody, error) {
	var c ConsumeFromBody
	if f.Type != TConsume || f.Flags&FlagOffset == 0 {
		return c, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return c, err
	}
	part, rest, err := getPart(f.Flags, rest)
	if err != nil {
		return c, err
	}
	if len(rest) < 12 {
		return c, ErrTruncated
	}
	c.Topic = topic
	c.Part = part
	c.Credit = binary.BigEndian.Uint32(rest)
	c.From = binary.BigEndian.Uint64(rest[4:])
	c.Strict = f.Flags&FlagStrict != 0
	c.Group, err = getGroup(rest[12:])
	if err != nil {
		return ConsumeFromBody{}, err
	}
	return c, nil
}

// ParseOffsetsReq returns the topic, partition and consumer group of
// an OFFSETS query.
func ParseOffsetsReq(f Frame) (topic []byte, part uint32, group []byte, err error) {
	if f.Type != TOffsets || f.Flags&FlagReply != 0 {
		return nil, 0, nil, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, nil, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, nil, err
	}
	group, err = getGroup(rest)
	if err != nil {
		return nil, 0, nil, err
	}
	return topic, part, group, nil
}

// ParseOffsetsResp returns the fields of an OFFSETS reply: oldest
// retained offset, next offset to be assigned, and the queried group's
// cursor (OffsetCursor when absent).
func ParseOffsetsResp(f Frame) (topic []byte, part uint32, oldest, next, cursor uint64, err error) {
	if f.Type != TOffsets || f.Flags&FlagReply == 0 {
		return nil, 0, 0, 0, 0, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	if len(rest) < 24 {
		return nil, 0, 0, 0, 0, ErrTruncated
	}
	if len(rest) > 24 {
		return nil, 0, 0, 0, 0, ErrTrailingBytes
	}
	return topic, part, binary.BigEndian.Uint64(rest),
		binary.BigEndian.Uint64(rest[8:]),
		binary.BigEndian.Uint64(rest[16:]), nil
}

// ParseConsume returns the topic, partition and initial credit of a
// CONSUME frame.
func ParseConsume(f Frame) (topic []byte, part uint32, credit uint32, err error) {
	if f.Type != TConsume {
		return nil, 0, 0, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rest) < 4 {
		return nil, 0, 0, ErrTruncated
	}
	if len(rest) > 4 {
		return nil, 0, 0, ErrTrailingBytes
	}
	return topic, part, binary.BigEndian.Uint32(rest), nil
}

// ParseAck returns the topic, partition and cumulative sequence of an
// ACK frame.
func ParseAck(f Frame) (topic []byte, part uint32, seq uint64, err error) {
	if f.Type != TAck {
		return nil, 0, 0, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rest) < 8 {
		return nil, 0, 0, ErrTruncated
	}
	if len(rest) > 8 {
		return nil, 0, 0, ErrTrailingBytes
	}
	return topic, part, binary.BigEndian.Uint64(rest), nil
}

// ParseCredit returns the topic, partition and grant of a CREDIT
// frame.
func ParseCredit(f Frame) (topic []byte, part uint32, n uint32, err error) {
	if f.Type != TCredit {
		return nil, 0, 0, ErrWrongType
	}
	topic, rest, err := getTopic(f.Body)
	if err != nil {
		return nil, 0, 0, err
	}
	part, rest, err = getPart(f.Flags, rest)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rest) < 4 {
		return nil, 0, 0, ErrTruncated
	}
	if len(rest) > 4 {
		return nil, 0, 0, ErrTrailingBytes
	}
	return topic, part, binary.BigEndian.Uint32(rest), nil
}

// ParseErr returns the human-readable reason carried by an ERR frame,
// discarding the code and detail (see ParseErrCode).
func ParseErr(f Frame) (string, error) {
	_, _, msg, err := ParseErrCode(f)
	return msg, err
}

// ParseErrCode returns the structured fields of an ERR frame: the
// code, its detail (meaning depends on the code) and the
// human-readable text.
func ParseErrCode(f Frame) (code uint16, detail uint64, msg string, err error) {
	if f.Type != TErr {
		return 0, 0, "", ErrWrongType
	}
	if len(f.Body) < errHeader {
		return 0, 0, "", ErrTruncated
	}
	return binary.BigEndian.Uint16(f.Body),
		binary.BigEndian.Uint64(f.Body[2:]),
		string(f.Body[errHeader:]), nil
}

// ParseMetaReq validates a METADATA query (empty body).
func ParseMetaReq(f Frame) error {
	if f.Type != TMeta || f.Flags&FlagReply != 0 {
		return ErrWrongType
	}
	if len(f.Body) != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// ParseMetaResp decodes a METADATA reply. Everything is copied out of
// the frame body — metadata is cold path and outlives the read buffer.
func ParseMetaResp(f Frame) (MetaResp, error) {
	var m MetaResp
	if f.Type != TMeta || f.Flags&FlagReply == 0 {
		return m, ErrWrongType
	}
	b := f.Body
	var err error
	m.NodeID, b, err = getString(b)
	if err != nil {
		return MetaResp{}, err
	}
	if len(b) < 10 {
		return MetaResp{}, ErrTruncated
	}
	m.Partitions = binary.BigEndian.Uint32(b)
	m.Replication = binary.BigEndian.Uint32(b[4:])
	nn := int(binary.BigEndian.Uint16(b[8:]))
	b = b[10:]
	if nn > MaxNodes {
		return MetaResp{}, ErrMetaTooLarge
	}
	// Each node costs at least its two length headers, so a count the
	// remaining body cannot fit fails before any allocation trusts it.
	if nn*4 > len(b) {
		return MetaResp{}, ErrTruncated
	}
	for i := 0; i < nn; i++ {
		var n NodeMeta
		n.ID, b, err = getString(b)
		if err != nil {
			return MetaResp{}, err
		}
		n.Addr, b, err = getString(b)
		if err != nil {
			return MetaResp{}, err
		}
		m.Nodes = append(m.Nodes, n)
	}
	if len(b) < 2 {
		return MetaResp{}, ErrTruncated
	}
	tn := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if tn > MaxMetaTopics {
		return MetaResp{}, ErrMetaTooLarge
	}
	if tn*2 > len(b) {
		return MetaResp{}, ErrTruncated
	}
	for i := 0; i < tn; i++ {
		var t string
		t, b, err = getString(b)
		if err != nil {
			return MetaResp{}, err
		}
		m.Topics = append(m.Topics, t)
	}
	if len(b) != 0 {
		return MetaResp{}, ErrTrailingBytes
	}
	return m, nil
}
