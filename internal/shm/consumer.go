package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Consumer is the draining side of a segment. Exactly one live process
// may hold it (Attach enforces this through the heartbeat PID), and
// one goroutine at a time may call its methods.
type Consumer struct {
	seg      *segment
	chead    uint64 // line rank being drained
	coff     int    // slots already consumed from the head line
	ccount   int    // cached published count of the head line
	deqTotal uint64
}

// Attach maps the segment at path, validating its header fail-closed
// (any truncation, bad magic/version, checksum damage or inconsistent
// geometry is refused), and registers this process as the consumer. A
// segment whose registered consumer is still alive yields ErrBusy; a
// dead consumer's registration is taken over, resuming at its recorded
// position (re-delivering at most the values of one call whose counter
// update the crash swallowed).
func Attach(path string) (*Consumer, error) {
	s, err := openAndMap(path)
	if err != nil {
		return nil, err
	}
	self := uint64(os.Getpid())
	pidWord := s.word(offConsPID)
	//ffq:ignore spin-backoff claim CAS races only with a concurrent attacher; one side wins each round so the loop is bounded by contender count
	for {
		old := pidWord.Load()
		if old != 0 && old != self && processAlive(old) {
			s.detach()
			return nil, ErrBusy
		}
		if pidWord.CompareAndSwap(old, self) {
			break
		}
	}
	c := &Consumer{seg: s}
	c.deqTotal = s.word(offDeqCount).Load()
	v := uint64(s.geo.ValsPerLine)
	c.chead = c.deqTotal / v
	c.coff = int(c.deqTotal % v)
	c.ccount = c.coff
	// Crash reconciliation: while the derived head line was already
	// handed back (its sequence word carries next lap's rank, whether
	// still free or re-published by the producer), every value in it
	// was consumed before the counter update was lost — skip past it.
	// A single drain call hands back many lines before its one counter
	// store, so this must walk forward until a line the predecessor did
	// not finish. It terminates at latest at the producer's tail, whose
	// lines still carry the current lap's rank.
	advanced := false
	//ffq:ignore spin-backoff not a wait loop: each iteration advances chead one line and it stops at the producer tail, so it runs at most one lap
	for {
		seq := s.cellSeq(c.chead & (s.geo.Lines - 1)).Load()
		if seq>>seqShift != c.chead+s.geo.Lines {
			break
		}
		c.chead++
		c.coff, c.ccount = 0, 0
		c.deqTotal = c.chead * v
		advanced = true
	}
	if advanced {
		s.word(offDeqCount).Store(c.deqTotal)
	}
	return c, nil
}

// Topic returns the topic name embedded in the header.
func (c *Consumer) Topic() string { return c.seg.topic }

// Geometry returns the segment's cell layout.
func (c *Consumer) Geometry() Geometry { return c.seg.geo }

// Depth returns the approximate number of unconsumed values.
func (c *Consumer) Depth() int64 {
	d := int64(c.seg.word(offEnqCount).Load()) - int64(c.seg.word(offDeqCount).Load())
	if d < 0 {
		return 0
	}
	return d
}

// CloseRequested reports whether the producer has called Close. Values
// may still be pending; drain until ErrClosed.
func (c *Consumer) CloseRequested() bool { return c.seg.word(offClosed).Load() != 0 }

// ProducerAlive probes the producer's heartbeat PID.
func (c *Consumer) ProducerAlive() bool { return processAlive(c.seg.word(offProdPID).Load()) }

// ProducerPID returns the producer's registered PID.
func (c *Consumer) ProducerPID() int { return int(c.seg.word(offProdPID).Load()) }

// refill refreshes the cached published count of the head line and
// reports whether an unconsumed value is visible.
func (c *Consumer) refill() bool {
	if c.coff < c.ccount {
		return true
	}
	s := c.seg.cellSeq(c.chead & (c.seg.geo.Lines - 1)).Load()
	st := s & stateMask
	if s>>seqShift != c.chead || st == stateFree || int(st) <= c.coff {
		return false
	}
	c.ccount = int(st)
	return true
}

// take copies the head slot's payload into buf and advances, handing a
// fully drained line back with one release store. The caller must have
// seen refill() == true. A slot whose length prefix exceeds the slot
// size means the mapping was corrupted underneath us; that is reported
// as ErrBadSegment rather than read out of bounds.
func (c *Consumer) take(buf []byte) (int, error) {
	line := c.chead & (c.seg.geo.Lines - 1)
	slot := c.seg.slot(line, c.coff)
	n := int(binary.LittleEndian.Uint32(slot))
	if n > c.seg.geo.SlotSize {
		return 0, fmt.Errorf("%w: slot length %d exceeds slot size %d", ErrBadSegment, n, c.seg.geo.SlotSize)
	}
	copied := copy(buf, slot[4:4+n])
	c.coff++
	c.deqTotal++
	if c.coff == c.seg.geo.ValsPerLine {
		c.seg.cellSeq(line).Store((c.chead+c.seg.geo.Lines)<<seqShift | stateFree)
		c.chead++
		c.coff, c.ccount = 0, 0
	}
	if copied < n {
		return copied, fmt.Errorf("%w: %d-byte payload into %d-byte buffer", ErrTruncated, n, len(buf))
	}
	return n, nil
}

// TryDequeue copies the next payload into buf if one is published,
// returning its length. ok reports whether a value was consumed, so it
// is true even on ErrTruncated — the value is gone either way (size buf
// at Geometry().SlotSize to never truncate). ok=false with a nil error
// means nothing is ready.
func (c *Consumer) TryDequeue(buf []byte) (n int, ok bool, err error) {
	if !c.refill() {
		return 0, false, nil
	}
	n, err = c.take(buf)
	c.seg.word(offDeqCount).Store(c.deqTotal)
	return n, err == nil || errors.Is(err, ErrTruncated), err
}

// Next copies the next payload into buf, blocking until one is
// published. It returns ErrClosed once the producer closed the segment
// and everything published has been drained, and ErrPeerDead when the
// producer died — after draining what it published before dying.
func (c *Consumer) Next(buf []byte) (int, error) {
	spins := 0
	for {
		if c.refill() {
			n, err := c.take(buf)
			c.seg.word(offDeqCount).Store(c.deqTotal)
			return n, err
		}
		if c.CloseRequested() {
			// Publishes precede the closed store; one more poll
			// catches a value raced with Close.
			if c.refill() {
				continue
			}
			return 0, ErrClosed
		}
		spins++
		if spins%livenessInterval == 0 && !c.ProducerAlive() {
			if c.refill() {
				continue
			}
			return 0, ErrPeerDead
		}
		spinWait(spins)
	}
}

// TryDrain appends up to max payloads to dst and returns it, never
// blocking. Each call copies what it drains into one arena, sized from
// the values visible when the call starts, so a drain costs one
// allocation whatever its length; the payloads are sub-slices of that
// arena and pin it while any of them is referenced. An empty return
// with a nil error just means nothing was published.
func (c *Consumer) TryDrain(dst [][]byte, max int) ([][]byte, error) {
	count, total, err := c.visible(max - len(dst))
	if count == 0 || err != nil {
		return dst, err
	}
	arena := make([]byte, total)
	off := 0
	for i := 0; i < count && c.refill(); i++ {
		// A published slot never changes until it is handed back, so the
		// lengths visible summed still hold; one that grew means the
		// mapping was corrupted, and take reports it.
		n, err := c.take(arena[off:])
		if err != nil {
			c.seg.word(offDeqCount).Store(c.deqTotal)
			return dst, err
		}
		dst = append(dst, arena[off:off+n:off+n])
		off += n
	}
	c.seg.word(offDeqCount).Store(c.deqTotal)
	return dst, nil
}

// visible counts the published values past the consumer's position, up
// to max, and sums their payload lengths, without consuming anything.
// It stops at the first line the producer has not filled, like refill.
func (c *Consumer) visible(max int) (count, total int, err error) {
	rank, off := c.chead, c.coff
	//ffq:ignore spin-backoff not a wait loop: each iteration counts one published line and it stops at the first line not yet full, so it runs at most max values
	for count < max {
		line := rank & (c.seg.geo.Lines - 1)
		s := c.seg.cellSeq(line).Load()
		st := s & stateMask
		if s>>seqShift != rank || st == stateFree || int(st) <= off {
			return count, total, nil
		}
		for ; off < int(st) && count < max; off++ {
			n := int(binary.LittleEndian.Uint32(c.seg.slot(line, off)))
			if n > c.seg.geo.SlotSize {
				return 0, 0, fmt.Errorf("%w: slot length %d exceeds slot size %d", ErrBadSegment, n, c.seg.geo.SlotSize)
			}
			count++
			total += n
		}
		if off < c.seg.geo.ValsPerLine {
			return count, total, nil
		}
		rank++
		off = 0
	}
	return count, total, nil
}

// Detach unregisters this consumer (clearing the heartbeat PID so a
// successor may attach) and unmaps the segment.
func (c *Consumer) Detach() error {
	if c.seg.mem == nil {
		return nil
	}
	c.seg.word(offConsPID).CompareAndSwap(uint64(os.Getpid()), 0)
	return c.seg.detach()
}
