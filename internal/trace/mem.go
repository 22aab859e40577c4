package trace

// In-memory encoded op streams: a compact private record format applied to
// a byte slice. At ~4 bytes per op the encoded form is ~6x smaller than
// []Op, which is what makes memoizing whole op streams cheap enough to
// matter — a workload's threads fit in the last-level cache instead of
// streaming tens of megabytes of 24-byte structs past it — while
// MemSource.NextBatch decodes straight from the slice with no reader
// state.
//
// The record layout is tuned for decode speed, not portability (the
// format never leaves the process; on-disk streams use the v2 container
// format in container.go):
//
//	flags byte: bit0 HasData, bit1 IsWrite, bit2 wide data address
//	zigzag-varint PC delta (sequential fetch = one byte)
//	absolute data address, 6 bytes little-endian (8 when bit2 is set),
//	  present only with bit0 — fixed width decodes with one load instead
//	  of a byte-serial varint chain
import (
	"encoding/binary"
	"slices"
)

const (
	memFlagData  = 1 << 0
	memFlagWrite = 1 << 1
	memFlagWide  = 1 << 2

	// memNarrowBits is the data-address width bit2 avoids encoding.
	memNarrowBits = 48
	// memMaxOpEnc is the largest record: flags + max varint + wide data.
	memMaxOpEnc = 1 + binary.MaxVarintLen64 + 8
)

// OpEncoder accumulates an op stream in encoded form. The zero value is
// ready to use; Append ops in order, then replay them any number of times
// with Source.
type OpEncoder struct {
	buf    []byte
	n      uint64
	prevPC uint64
}

// Append encodes one op.
func (e *OpEncoder) Append(op Op) {
	var flags byte
	if op.HasData {
		flags |= memFlagData
	}
	if op.IsWrite {
		flags |= memFlagWrite
	}
	wide := op.DataAddr >= 1<<memNarrowBits
	if wide {
		flags |= memFlagWide
	}
	e.buf = append(e.buf, flags)
	e.buf = binary.AppendVarint(e.buf, int64(op.PC-e.prevPC))
	e.prevPC = op.PC
	if op.HasData {
		if wide {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, op.DataAddr)
		} else {
			e.buf = append(e.buf,
				byte(op.DataAddr), byte(op.DataAddr>>8), byte(op.DataAddr>>16),
				byte(op.DataAddr>>24), byte(op.DataAddr>>32), byte(op.DataAddr>>40))
		}
	}
	e.n++
}

// Grow reserves room for n more encoded bytes, so a recording whose size
// can be bounded up front is allocated once instead of by append-doubling
// (a typical op encodes in ~4 bytes). Appending past the reservation still
// works.
func (e *OpEncoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Ops returns the number of ops encoded so far.
func (e *OpEncoder) Ops() uint64 { return e.n }

// Bytes returns the encoded size so far.
func (e *OpEncoder) Bytes() int { return len(e.buf) }

// Source returns a fresh source replaying the encoded stream from the
// start. Sources are independent; the encoder must not be appended to
// while sources from it are live.
func (e *OpEncoder) Source() *MemSource {
	return &MemSource{buf: e.buf, want: e.n}
}

// MemSource replays an OpEncoder's stream. It implements BatchSource;
// decoding is pure slice indexing. A malformed buffer (impossible for
// encoder-produced streams) ends the stream early.
type MemSource struct {
	buf        []byte
	pos        int
	read, want uint64
	prevPC     uint64
}

// Next implements Source.
func (s *MemSource) Next() (Op, bool) {
	if s.read >= s.want || s.pos >= len(s.buf) {
		return Op{}, false
	}
	flags := s.buf[s.pos]
	s.pos++
	var op Op
	op.HasData = flags&memFlagData != 0
	op.IsWrite = flags&memFlagWrite != 0
	d, w := binary.Varint(s.buf[s.pos:])
	if w <= 0 {
		s.read = s.want
		return Op{}, false
	}
	s.pos += w
	op.PC = s.prevPC + uint64(d)
	s.prevPC = op.PC
	if op.HasData {
		width := 6
		if flags&memFlagWide != 0 {
			width = 8
		}
		if s.pos+width > len(s.buf) {
			s.read = s.want
			return Op{}, false
		}
		for i := 0; i < width; i++ {
			op.DataAddr |= uint64(s.buf[s.pos+i]) << (8 * i)
		}
		s.pos += width
	}
	s.read++
	return op, true
}

// NextBatch implements BatchSource. Records that provably fit in the
// remaining buffer are decoded with an inlined zigzag-varint PC reader and
// wide loads for the data address; the last few records near the buffer's
// end go through Next's bounds-checked decoder.
func (s *MemSource) NextBatch(dst []Op) int {
	n := 0
	buf := s.buf
	pos := s.pos
	prevPC := s.prevPC
	for n < len(dst) && s.read < s.want {
		if pos+memMaxOpEnc > len(buf) {
			// Tail: sync state and take the careful path.
			s.pos, s.prevPC = pos, prevPC
			op, ok := s.Next()
			if !ok {
				return n
			}
			dst[n] = op
			n++
			pos, prevPC = s.pos, s.prevPC
			continue
		}
		flags := buf[pos]
		pos++
		u := uint64(buf[pos])
		pos++
		if u >= 0x80 {
			u &= 0x7f
			for shift := uint(7); ; shift += 7 {
				b := buf[pos]
				pos++
				u |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		prevPC += uint64(int64(u>>1) ^ -int64(u&1))
		op := Op{PC: prevPC, HasData: flags&memFlagData != 0, IsWrite: flags&memFlagWrite != 0}
		if op.HasData {
			if flags&memFlagWide != 0 {
				op.DataAddr = binary.LittleEndian.Uint64(buf[pos:])
				pos += 8
			} else {
				op.DataAddr = uint64(binary.LittleEndian.Uint32(buf[pos:])) |
					uint64(binary.LittleEndian.Uint16(buf[pos+4:]))<<32
				pos += 6
			}
		}
		dst[n] = op
		n++
		s.read++
	}
	s.pos, s.prevPC = pos, prevPC
	return n
}
