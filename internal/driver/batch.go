// Receive-side GRO-style coalescing: merge helpers that fold a donor
// frame's transport payload into the tail of a head frame, and the pump
// loops of the non-steered receive drivers, which inject batches (of
// one, unless batching is on). The merged frame
// stays a valid wire frame — the IP total length grows and its header
// checksum is rebuilt so ip.Demux still verifies — and carries the
// segment count on the head view (msg.Message.Segs) so the layers
// above can account for every coalesced wire segment.
package driver

import (
	"encoding/binary"

	"repro/internal/chksum"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
)

// batchGrow returns the extra tail space to allocate for a merged
// frame's head so up to MaxSegs payloads fit, capped by MaxBytes and
// the largest buffer class.
func batchGrow(frameLen, payload int, bc msg.BatchConfig) int {
	max := bc.MaxBytes
	if max <= 0 || max > msg.MaxClassBytes {
		max = msg.MaxClassBytes
	}
	g := (bc.MaxSegs - 1) * payload
	if frameLen+g > max {
		g = max - frameLen
	}
	if g < 0 {
		g = 0
	}
	return g
}

// growIPLen extends a frame's IP total length by n and rebuilds the
// header checksum (ip.Demux drops frames whose header does not verify).
func growIPLen(frame []byte, n int) {
	totLen := binary.BigEndian.Uint16(frame[offIP+2:offIP+4]) + uint16(n)
	binary.BigEndian.PutUint16(frame[offIP+2:offIP+4], totLen)
	frame[offIP+10], frame[offIP+11] = 0, 0
	ck := chksum.Sum(frame[offIP : offIP+ip.HdrLen])
	binary.BigEndian.PutUint16(frame[offIP+10:offIP+12], ck)
}

// absorbPayload strips donor's hdr-byte frame header, appends what is
// left to head and grows head's IP length by those n bytes. A donor
// that does not fit head's tailroom (head being unshared, as a frame a
// driver just produced is) is refused with both frames as they were.
func absorbPayload(t *sim.Thread, head, donor *msg.Message, hdr int) (n int, err error) {
	n = donor.Len() - hdr
	if n < 0 || head.Tailroom() < n {
		return 0, msg.ErrNoRoom
	}
	if err := donor.TrimFront(t, hdr); err != nil {
		return 0, err
	}
	if err := head.Absorb(t, donor); err != nil {
		return 0, err
	}
	growIPLen(head.Bytes(), n)
	if rec := t.Engine().Rec; rec != nil {
		rec.BatchMerge(t.Proc, t.Now(), int64(head.SegCount()))
	}
	return n, nil
}

// MergeUDP absorbs donor's UDP payload into head (both full frames of
// the same flow), patching head's IP and UDP lengths and, if head is
// checksummed (the drivers' templates are not), its UDP checksum. The
// caller should have checked the batch caps; donor is consumed on
// success and must be flushed separately on failure.
func MergeUDP(t *sim.Thread, head, donor *msg.Message) error {
	n, err := absorbPayload(t, head, donor, udpFrameHdr)
	if err != nil {
		return err
	}
	hb := head.Bytes()
	udpLen := binary.BigEndian.Uint16(hb[offUDP+4:offUDP+6]) + uint16(n)
	binary.BigEndian.PutUint16(hb[offUDP+4:offUDP+6], udpLen)
	rechecksum(hb, offUDP+6)
	return nil
}

// rechecksum rebuilds a merged frame's transport checksum, at frame[at:],
// if the head came checksummed: zero on the wire means it did not.
func rechecksum(frame []byte, at int) {
	ck := frame[at : at+2]
	if ck[0]|ck[1] == 0 {
		return
	}
	ck[0], ck[1] = 0, 0
	sum := chksum.SumPseudo([4]byte(frame[offIP+12:]), [4]byte(frame[offIP+16:]), frame[offIP+9], frame[offIP+ip.HdrLen:])
	if sum == 0 {
		sum = 0xffff
	}
	binary.BigEndian.PutUint16(ck, sum)
}

// MergeTCP absorbs donor's TCP payload into head. The head keeps its
// sequence number: the merged frame is one fatter in-order segment, so
// the caller must only merge when donor.Seq continues head's run. As in
// MergeUDP a checksummed head's checksum is rebuilt.
func MergeTCP(t *sim.Thread, head, donor *msg.Message) error {
	if _, err := absorbPayload(t, head, donor, tcpFrameHdr); err != nil {
		return err
	}
	rechecksum(head.Bytes(), offTCP+18)
	return nil
}

// noteFlush records a frame leaving the batching stage for the stack. A
// batch of one is the per-packet path, and its trace carries no
// batching events.
func noteFlush(t *sim.Thread, bc msg.BatchConfig, reason string, segs int, m *msg.Message) {
	if rec := t.Engine().Rec; rec != nil && bc.MaxSegs > 1 {
		rec.BatchFlush(t.Proc, t.Now(), reason, int64(segs), int64(m.Len()))
	}
}

// PumpBatch produces up to bc.MaxSegs same-connection datagrams merged
// into one frame and shepherds it up the stack on the calling thread
// (thread-per-packet). With MaxSegs 1 that is one datagram, no tailroom
// held back and nothing merged: the paper's per-packet receive path.
// Returns the number of wire segments the injected frame carries.
func (s *UDPSource) PumpBatch(t *sim.Thread, conn int, bc msg.BatchConfig) (int, error) {
	tmpl := s.tmpl[conn%len(s.tmpl)]
	payload := len(tmpl) - udpFrameHdr
	m, err := s.produce(t, conn, batchGrow(len(tmpl), payload, bc))
	if err != nil {
		return 0, err
	}
	segs := 1
	for segs < bc.MaxSegs && payload > 0 &&
		m.Len()+payload <= bc.MaxBytes && m.Tailroom() >= payload {
		d, err := s.produce(t, conn, 0)
		if err != nil {
			m.Free(t)
			return 0, err
		}
		if err := MergeUDP(t, m, d); err != nil {
			d.Free(t)
			m.Free(t)
			return 0, err
		}
		segs++
	}
	reason := "maxbytes"
	if segs == bc.MaxSegs {
		reason = "maxsegs"
	}
	noteFlush(t, bc, reason, segs, m)
	return segs, s.up.Demux(t, m)
}

// PumpBatch produces up to bc.MaxSegs in-sequence segments for conn,
// merges the contiguous run into one frame and injects it — one state-
// lock acquisition at TCP for the whole run. A segment whose sequence
// does not continue the run (another processor claimed the offsets in
// between) flushes the batch and is injected separately. With MaxSegs 1
// it produces and injects one segment, the packet-level fast path.
// Returns the merged frame's segment count and false when stopped
// before producing.
func (d *SimTCPSender) PumpBatch(t *sim.Thread, conn int, stop *sim.Flag, bc msg.BatchConfig) (int, bool, error) {
	c := d.conns[conn]
	m, ok, err := d.produce(t, conn, stop, batchGrow(len(c.tmpl), d.payload, bc))
	if err != nil || !ok {
		return 0, ok, err
	}
	segs := 1
	reason := "window"
	var stray *msg.Message
	for {
		if segs >= bc.MaxSegs {
			reason = "maxsegs"
			break
		}
		if m.Len()+d.payload > bc.MaxBytes || m.Tailroom() < d.payload {
			reason = "maxbytes"
			break
		}
		n, ok2, err2 := d.TryProduce(t, conn)
		if err2 != nil {
			m.Free(t)
			return 0, false, err2
		}
		if !ok2 {
			break
		}
		if n.Seq != m.Seq+uint64(m.Len()-tcpFrameHdr) {
			reason = "seq"
			stray = n
			break
		}
		if err2 := MergeTCP(t, m, n); err2 != nil {
			n.Free(t)
			m.Free(t)
			return 0, false, err2
		}
		segs++
	}
	noteFlush(t, bc, reason, segs, m)
	if err := d.Inject(t, m); err != nil {
		if stray != nil {
			stray.Free(t)
		}
		return segs, true, err
	}
	if stray != nil {
		noteFlush(t, bc, "seq", 1, stray)
		return segs, true, d.Inject(t, stray)
	}
	return segs, true, nil
}
