package xproto

import (
	"bytes"
	"math/rand"
	"testing"
)

// rawFrame renders one v1 request frame for op carrying payload as is:
// a frame's u32 length and payload are laid out as PutBytes lays them.
func rawFrame(op uint16, payload []byte) []byte {
	var w Writer
	w.PutU16(op)
	w.PutBytes(payload)
	return w.Bytes()
}

// requestFrames renders the v1 request frames for reqs, concatenated.
func requestFrames(reqs ...Request) []byte {
	var w Writer
	for _, req := range reqs {
		w.RequestFrame(req)
	}
	return w.Bytes()
}

// randomPayload returns n seeded random bytes: flate cannot shrink
// them, so a segment carrying them keeps its body uncompressed.
func randomPayload(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(p)
	return p
}

type walkedFrame struct {
	op      uint16
	payload []byte
}

// collectSegment decodes a client→server segment envelope and walks the
// v1 request frames inside it, returning the (op, payload) pairs seen.
func collectSegment(t *testing.T, seg []byte) []walkedFrame {
	t.Helper()
	raw, _, err := DecodeSegmentPayload(seg, nil)
	if err != nil {
		t.Fatalf("DecodeSegmentPayload: %v", err)
	}
	var got []walkedFrame
	err = WalkRequestFrames(raw, func(op uint16, payload []byte) error {
		got = append(got, walkedFrame{op, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("WalkRequestFrames: %v", err)
	}
	return got
}

// segPayload strips the outer OpWireSeg frame header, returning the
// segment envelope bytes.
func segPayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	op, payload, err := ReadRequestFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadRequestFrame: %v", err)
	}
	if op != OpWireSeg {
		t.Fatalf("op = %d, want OpWireSeg", op)
	}
	return payload
}

func TestWireSegRoundTripCompressed(t *testing.T) {
	// Highly repetitive v1 frames: compression must kick in, and the
	// walk must reproduce every (op, payload) pair in order.
	var w Writer
	var want [][]byte
	for i := 0; i < 50; i++ {
		req := &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: int16(i), Y: 10, W: 20, H: 20}}}
		start := len(w.Bytes())
		w.RequestFrame(req)
		want = append(want, append([]byte(nil), w.Bytes()[start+6:]...))
	}
	frames := w.Bytes()
	frame, compressed := AppendWireSegRequestFrame(nil, frames)
	if !compressed {
		t.Fatalf("repetitive segment did not compress")
	}
	if len(frame) >= len(frames) {
		t.Fatalf("compressed frame (%d bytes) not smaller than the v1 frames (%d bytes)", len(frame), len(frames))
	}

	got := collectSegment(t, segPayload(t, frame))
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].op != OpPolyFillRectangle {
			t.Fatalf("frame %d: op = %d, want OpPolyFillRectangle", i, got[i].op)
		}
		if !bytes.Equal(got[i].payload, want[i]) {
			t.Fatalf("frame %d: payload mismatch\n got %x\nwant %x", i, got[i].payload, want[i])
		}
	}
}

func TestWireSegIncompressiblePassthrough(t *testing.T) {
	// Random bytes do not compress: the envelope must fall back to the
	// verbatim body and still round-trip.
	payload := randomPayload(2048)
	frame, compressed := AppendWireSegRequestFrame(nil, rawFrame(OpPing, payload))
	if compressed {
		t.Fatalf("random segment claims to have compressed")
	}
	got := collectSegment(t, segPayload(t, frame))
	if len(got) != 1 || got[0].op != OpPing || !bytes.Equal(got[0].payload, payload) {
		t.Fatalf("passthrough round trip mismatch")
	}
}

func TestWireSegSmallSegmentNotCompressed(t *testing.T) {
	frames := requestFrames(&PingReq{})
	if len(frames) >= minCompressSize {
		t.Fatalf("test premise broken: tiny frame is %d bytes", len(frames))
	}
	_, compressed := AppendWireSegRequestFrame(nil, frames)
	if compressed {
		t.Fatalf("segment below minCompressSize was compressed")
	}
}

func TestSegmentChecksumMismatch(t *testing.T) {
	frame, compressed := AppendWireSegRequestFrame(nil, rawFrame(OpPing, randomPayload(200)))
	if compressed {
		t.Fatalf("test premise broken: random segment compressed")
	}
	seg := segPayload(t, frame)
	// Flip one bit in the body (past the 9-byte envelope header).
	seg[9+len(seg[9:])/2] ^= 0x40
	if _, _, err := DecodeSegmentPayload(seg, nil); err == nil {
		t.Fatalf("corrupted segment decoded without error")
	}
}

func TestSegmentCorruptCompressedBody(t *testing.T) {
	frame, compressed := AppendWireSegRequestFrame(nil, rawFrame(OpPing, bytes.Repeat([]byte{5}, 500)))
	if !compressed {
		t.Fatalf("repetitive segment did not compress")
	}
	seg := segPayload(t, frame)
	for i := 9; i < len(seg); i++ {
		mut := append([]byte(nil), seg...)
		mut[i] ^= 0xFF
		if raw, _, err := DecodeSegmentPayload(mut, nil); err == nil {
			// A decode that survives the flip must still have been
			// checksum-verified to the original bytes (CRC collision at
			// one flipped byte is impossible for CRC-32C).
			t.Fatalf("byte %d: corrupted compressed segment decoded to %d bytes without error", i, len(raw))
		}
	}
}

func TestSegmentTruncationAndFlags(t *testing.T) {
	frame, _ := AppendWireSegRequestFrame(nil, rawFrame(OpPing, []byte{1, 2, 3}))
	seg := segPayload(t, frame)

	if _, _, err := DecodeSegmentPayload(seg[:5], nil); err == nil {
		t.Fatalf("truncated envelope decoded")
	}
	if _, _, err := DecodeSegmentPayload(seg[:len(seg)-1], nil); err == nil {
		t.Fatalf("truncated body decoded")
	}
	mut := append([]byte(nil), seg...)
	mut[0] = 0x80 // unknown flag bit
	if _, _, err := DecodeSegmentPayload(mut, nil); err == nil {
		t.Fatalf("unknown flags decoded")
	}
}

func TestWalkRequestFrames(t *testing.T) {
	frames := []walkedFrame{
		{OpPing, nil},
		{OpBell, []byte{9}},
		{OpPolyFillRectangle, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	var raw []byte
	for _, f := range frames {
		raw = append(raw, rawFrame(f.op, f.payload)...)
	}
	i := 0
	err := WalkRequestFrames(raw, func(op uint16, payload []byte) error {
		if op != frames[i].op || !bytes.Equal(payload, frames[i].payload) {
			t.Fatalf("frame %d mismatch: op %d payload %x", i, op, payload)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("WalkRequestFrames: %v", err)
	}
	if i != len(frames) {
		t.Fatalf("walked %d frames, want %d", i, len(frames))
	}

	// Every truncation short of a frame boundary must error, not loop,
	// panic or hand a short payload to fn.
	boundary := map[int]bool{0: true}
	n := 0
	for _, f := range frames {
		n += 6 + len(f.payload)
		boundary[n] = true
	}
	for cut := 1; cut < len(raw); cut++ {
		err := WalkRequestFrames(raw[:cut], func(uint16, []byte) error { return nil })
		if boundary[cut] && err != nil {
			t.Fatalf("cut at frame boundary %d: %v", cut, err)
		}
		if !boundary[cut] && err == nil {
			t.Fatalf("request segment truncated to %d bytes walked without error", cut)
		}
	}
}

func TestWalkServerFrames(t *testing.T) {
	var raw []byte
	frames := []struct {
		kind    byte
		payload []byte
	}{
		{KindReply, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{KindEvent, []byte{9}},
		{KindError, nil},
	}
	for _, f := range frames {
		raw = append(raw, f.kind)
		raw = append(raw, byte(len(f.payload)>>24), byte(len(f.payload)>>16), byte(len(f.payload)>>8), byte(len(f.payload)))
		raw = append(raw, f.payload...)
	}
	sframe, _ := AppendWireSegServerFrame(nil, raw)
	kind, seg, err := ReadServerFrame(bytes.NewReader(sframe), nil)
	if err != nil || kind != KindWireSeg {
		t.Fatalf("ReadServerFrame: kind %d, err %v", kind, err)
	}
	dec, _, err := DecodeSegmentPayload(seg, nil)
	if err != nil {
		t.Fatalf("DecodeSegmentPayload: %v", err)
	}
	i := 0
	err = WalkServerFrames(dec, func(kind byte, payload []byte) error {
		if kind != frames[i].kind || !bytes.Equal(payload, frames[i].payload) {
			t.Fatalf("frame %d mismatch: kind %d payload %x", i, kind, payload)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("WalkServerFrames: %v", err)
	}
	if i != len(frames) {
		t.Fatalf("walked %d frames, want %d", i, len(frames))
	}

	// Truncated inner server frame must error, not loop or panic.
	if err := WalkServerFrames(dec[:len(dec)-3], func(byte, []byte) error { return nil }); err == nil {
		t.Fatalf("truncated server segment walked without error")
	}
}
