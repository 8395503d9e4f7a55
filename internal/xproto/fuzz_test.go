package xproto

import (
	"bytes"
	"testing"
)

// fuzzSeedRequestFrames builds representative v1 and v2 client→server
// frames to seed the corpus: plain v1 requests, the upgrade request, a
// compressed v2 segment, and a v2 segment of several v1 request frames.
func fuzzSeedRequestFrames() [][]byte {
	seeds := [][]byte{
		AppendRequestFrame(nil, &PingReq{}),
		AppendRequestFrame(nil, &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: 1, Y: 2, W: 3, H: 4}}}),
		AppendRequestFrame(nil, &UpgradeWireReq{Version: 2}),
	}
	// A compressible v2 segment: one v1 frame with a repetitive payload.
	var frames bytes.Buffer
	WriteRequestFrame(&frames, OpPing, bytes.Repeat([]byte{0x42}, 300))
	seg, _ := AppendWireSegRequestFrame(nil, frames.Bytes())
	seeds = append(seeds, seg)
	// A v2 segment of the frames a small drawing batch sends.
	var batch []byte
	for i := 0; i < 3; i++ {
		batch = AppendRequestFrame(batch, &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: int16(i), Y: 2, W: 3, H: 4}}})
	}
	batch = AppendRequestFrame(batch, &PingReq{})
	seg, _ = AppendWireSegRequestFrame(nil, batch)
	seeds = append(seeds, seg)
	return seeds
}

// FuzzReadRequestFrame drives the full client→server decode path —
// outer v1 framing, then (for OpWireSeg) the segment envelope, the
// optional flate body and the v1 request frames inside it. The
// property under test is "no panic, no out-of-bounds": any malformed
// input must come back as an error.
func FuzzReadRequestFrame(f *testing.F) {
	for _, s := range fuzzSeedRequestFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := ReadRequestFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Exercise the generic decode path like the server's dispatcher.
		if req := NewRequest(op); req != nil {
			req.Decode(NewReader(payload))
		}
		if op != OpWireSeg {
			return
		}
		raw, _, err := DecodeSegmentPayload(payload, nil)
		if err != nil {
			return
		}
		// Walk the inner frames as the server's request loop does; errors
		// are the expected outcome for garbage.
		_ = WalkRequestFrames(raw, func(op uint16, payload []byte) error {
			if req := NewRequest(op); req != nil {
				req.Decode(NewReader(payload))
			}
			return nil
		})
	})
}

// FuzzReadServerFrame drives the server→client decode path: outer v1
// framing, then (for KindWireSeg) the envelope and the concatenated
// inner server frames.
func FuzzReadServerFrame(f *testing.F) {
	// v1 seeds: a reply-shaped frame and an event-shaped frame.
	var reply []byte
	reply = append(reply, KindReply, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1)
	f.Add(reply)
	var raw []byte
	raw = append(raw, KindEvent, 0, 0, 0, 1, 9)
	raw = append(raw, KindReply, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 2)
	seg, _ := AppendWireSegServerFrame(nil, raw)
	f.Add(seg)
	ack := []byte{KindWireAck, 0, 0, 0, 1, 2}
	f.Add(ack)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := ReadServerFrame(bytes.NewReader(data))
		if err != nil || kind != KindWireSeg {
			return
		}
		raw, _, err := DecodeSegmentPayload(payload, nil)
		if err != nil {
			return
		}
		_ = WalkServerFrames(raw, func(kind byte, payload []byte) error {
			var ev Event
			if kind == KindEvent {
				ev.Decode(NewReader(payload))
			}
			return nil
		})
	})
}
