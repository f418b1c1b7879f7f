package transport

import (
	"bytes"
	"testing"
)

// FuzzCodecRoundTrip drives Decode with arbitrary bytes and pins the codec's
// two contracts: malformed input is rejected with an error (never a panic),
// and any frame Decode accepts re-encodes byte-identically — the canonical
// property that makes "one Message, one encoding" hold on the wire. The Send
// paths encode into a recycled buffer, so the same bytes must come out of
// appendEncode over whatever the previous frame left behind.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(frame)
		// Seed the mutator with damaged variants so it starts near the
		// interesting boundaries, not just at valid frames.
		if len(frame) > 1 {
			f.Add(frame[:len(frame)-1])
		}
		f.Add(append(append([]byte(nil), frame...), 0xFF))
	}
	f.Add([]byte{})
	f.Add([]byte{codecMagic, codecVersion})

	var reused []byte // the last accepted frame's buffer, dirty with its bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected without panicking: that is the contract
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%#v)", err, m)
		}
		if !bytes.Equal(data, re) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
		reused, err = appendEncode(reused[:0], m)
		if err != nil || !bytes.Equal(re, reused) {
			t.Fatalf("appendEncode into a reused buffer diverged from Encode: %v\n want %x\n got  %x", err, re, reused)
		}
		// A second round-trip must be a fixed point.
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2, err := Encode(m2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("second round-trip diverged: %v", err)
		}
	})
}
