package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func sampleMessages() []Message {
	return []Message{
		{Type: TPing},
		{Type: TPong, Seq: 42, Key: 7, Epoch: 3, Body: putDelay(make([]byte, 8), 12.5)},
		{Type: TWalk, TTL: 2, Src: 5, Dst: 9, Key: 5, Path: []int{3, 8, 11}},
		{Type: TWalkReply, TTL: 1, Seq: 99, Path: []int{0, -1, 1 << 30}},
		{Type: TMeasure, Src: -7, Dst: 1<<40 + 3, Key: 0xFFFFFFFF},
		{Type: TMeasureReply, TTL: 0, Body: []byte{}},
		// A list relay: the partner's targets, then one RTT per target.
		{Type: TMeasure, Epoch: 2, Seq: 7, Src: 4, Dst: 9, Body: words(3, 1<<40, 0)},
		{Type: TMeasureReply, TTL: 1, Epoch: 2, Seq: 7, Src: 9, Dst: 4, Body: words(math.Float64bits(20), math.Float64bits(1), 0)},
		{Type: TData, Body: bytes.Repeat([]byte{0xAB}, 1000)},
	}
}

// words lays 64-bit values out big-endian, as a list relay's body carries
// host IDs and RTT bits.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func TestCodecRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("msg %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, re) {
			t.Fatalf("msg %d: canonical encoding violated:\n  %x\n  %x", i, frame, re)
		}
	}
}

func TestCodecCanonicalNilVsEmpty(t *testing.T) {
	// nil and empty Path/Body must encode identically (the canonical form).
	a, err := Encode(Message{Type: TData})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(Message{Type: TData, Path: []int{}, Body: []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("nil vs empty slices encode differently:\n  %x\n  %x", a, b)
	}
	m, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != nil || m.Body != nil {
		t.Fatalf("decode of empty path/body must yield nil slices, got %#v", m)
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	good, err := Encode(Message{Type: TWalk, TTL: 2, Path: []int{1, 2}, Body: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:headerLen-1],
		"truncated":    good[:len(good)-1],
		"padded":       append(append([]byte(nil), good...), 0),
	}
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 0x00
	cases["bad magic"] = badMagic
	badVersion := append([]byte(nil), good...)
	badVersion[1] = 99
	cases["bad version"] = badVersion
	badType := append([]byte(nil), good...)
	badType[2] = byte(maxType) + 1
	cases["bad type"] = badType
	hugePath := append([]byte(nil), good...)
	hugePath[36], hugePath[37] = 0xFF, 0xFF
	cases["huge pathLen"] = hugePath
	hugeBody := append([]byte(nil), good...)
	hugeBody[38], hugeBody[39], hugeBody[40], hugeBody[41] = 0xFF, 0xFF, 0xFF, 0xFF
	cases["huge bodyLen"] = hugeBody

	for name, frame := range cases {
		if _, err := Decode(frame); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
}

// unencodable lists messages no frame can carry, by what is wrong with each.
func unencodable() map[string]Message {
	return map[string]Message{
		"zero type":      {},
		"unknown type":   {Type: maxType + 1},
		"oversize path":  {Type: TWalk, Path: make([]int, MaxPath+1)},
		"oversize body":  {Type: TData, Body: make([]byte, MaxBody+1)},
		"path overflow":  {Type: TWalk, Path: []int{1 << 40}},
		"path underflow": {Type: TWalk, Path: []int{-(1 << 40)}},
	}
}

func TestEncodeRejectsUnencodable(t *testing.T) {
	for name, m := range unencodable() {
		if _, err := Encode(m); err == nil {
			t.Errorf("%s: encode accepted an unencodable message", name)
		}
	}
}

func TestDelayFraming(t *testing.T) {
	// One buffer throughout, as a pooled pong body is reused.
	buf := make([]byte, 8)
	for _, d := range []float64{0, 0.5, 12.25, 1e9} {
		if got, ok := decodeDelay(putDelay(buf, d)); !ok || got != d {
			t.Fatalf("delay %v: round-trip gave %v %v", d, got, ok)
		}
	}
	for _, bad := range [][]byte{nil, {1}, {1, 0, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 7), make([]byte, 10)} {
		if _, ok := decodeDelay(bad); ok {
			t.Fatalf("decodeDelay accepted malformed frame %x", bad)
		}
	}
}
