package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Wire format (big-endian, canonical: one Message has exactly one encoding):
//
//	magic(1) version(1) type(1) ttl(1) epoch(4) seq(8) src(8) dst(8)
//	key(4) pathLen(2) bodyLen(4) path[pathLen]×4 body[bodyLen]
//
// Path entries are int32 slot IDs; src/dst are int64 host IDs. Decode
// rejects anything malformed — bad magic, unknown version or type, length
// fields that disagree with the frame — with an error, never a panic, and
// requires the frame length to match exactly (no trailing garbage).
const (
	codecMagic   = 0xB5
	codecVersion = 1
	headerLen    = 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 4 + 2 + 4

	// MaxPath bounds a walk path on the wire; PROP walks are NHops long
	// (default 2), so this is a generous safety valve, not a protocol limit.
	MaxPath = 1024
	// MaxBody bounds the opaque payload so a frame always fits a UDP
	// datagram with headroom.
	MaxBody = 32 * 1024
)

// Encode serializes m into a fresh frame. It rejects messages that cannot
// round-trip: unknown types, out-of-range host or slot IDs, oversized paths
// or bodies.
func Encode(m Message) ([]byte, error) { return appendEncode(nil, m) }

// appendEncode is the one encoder: it validates m and appends its frame to
// buf, growing it at most once. On error it returns buf unchanged, so a
// caller may assign the result back over its buffer unconditionally. The two
// Send paths call it with a pooled buffer (frames), Encode with none.
func appendEncode(buf []byte, m Message) ([]byte, error) {
	if !m.Type.Valid() {
		return buf, fmt.Errorf("transport: encode: unknown type %d", m.Type)
	}
	if len(m.Path) > MaxPath {
		return buf, fmt.Errorf("transport: encode: path of %d entries exceeds %d", len(m.Path), MaxPath)
	}
	if len(m.Body) > MaxBody {
		return buf, fmt.Errorf("transport: encode: body of %d bytes exceeds %d", len(m.Body), MaxBody)
	}
	for i, s := range m.Path {
		if s < math.MinInt32 || s > math.MaxInt32 {
			return buf, fmt.Errorf("transport: encode: path[%d] = %d out of int32 range", i, s)
		}
	}
	buf = slices.Grow(buf, headerLen+4*len(m.Path)+len(m.Body))
	buf = append(buf, codecMagic, codecVersion, byte(m.Type), m.TTL)
	buf = binary.BigEndian.AppendUint32(buf, m.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m.Src)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(m.Dst)))
	buf = binary.BigEndian.AppendUint32(buf, m.Key)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Path)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Body)))
	for _, s := range m.Path {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(s)))
	}
	buf = append(buf, m.Body...)
	return buf, nil
}

// frames recycles the encode buffers of the two Send paths. A frame is dead
// the moment its consumer returns — Decode copies Path and Body out of it,
// WriteToUDP copies it into the kernel — so nothing a caller or receiver
// holds ever aliases a pooled buffer.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// Decode parses one frame. Truncated, corrupt, oversized, or padded frames
// are rejected with an error; a successful decode consumed the entire input
// and re-encodes byte-identically (the FuzzCodecRoundTrip contract).
func Decode(frame []byte) (Message, error) {
	var m Message
	if len(frame) < headerLen {
		return m, fmt.Errorf("transport: decode: frame of %d bytes shorter than header %d", len(frame), headerLen)
	}
	if frame[0] != codecMagic {
		return m, fmt.Errorf("transport: decode: bad magic %#x", frame[0])
	}
	if frame[1] != codecVersion {
		return m, fmt.Errorf("transport: decode: unknown version %d", frame[1])
	}
	m.Type = Type(frame[2])
	if !m.Type.Valid() {
		return m, fmt.Errorf("transport: decode: unknown type %d", frame[2])
	}
	m.TTL = frame[3]
	m.Epoch = binary.BigEndian.Uint32(frame[4:])
	m.Seq = binary.BigEndian.Uint64(frame[8:])
	m.Src = int(int64(binary.BigEndian.Uint64(frame[16:])))
	m.Dst = int(int64(binary.BigEndian.Uint64(frame[24:])))
	m.Key = binary.BigEndian.Uint32(frame[32:])
	pathLen := int(binary.BigEndian.Uint16(frame[36:]))
	bodyLen := int(binary.BigEndian.Uint32(frame[38:]))
	if pathLen > MaxPath {
		return m, fmt.Errorf("transport: decode: path of %d entries exceeds %d", pathLen, MaxPath)
	}
	if bodyLen > MaxBody {
		return m, fmt.Errorf("transport: decode: body of %d bytes exceeds %d", bodyLen, MaxBody)
	}
	want := headerLen + 4*pathLen + bodyLen
	if len(frame) != want {
		return m, fmt.Errorf("transport: decode: frame is %d bytes, header demands %d", len(frame), want)
	}
	if pathLen > 0 {
		m.Path = make([]int, pathLen)
		for i := range m.Path {
			m.Path[i] = int(int32(binary.BigEndian.Uint32(frame[headerLen+4*i:])))
		}
	}
	if bodyLen > 0 {
		m.Body = append([]byte(nil), frame[headerLen+4*pathLen:]...)
	}
	return m, nil
}
