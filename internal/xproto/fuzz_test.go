package xproto

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// fuzzSeedRequestFrames builds representative v1 and v2 client→server
// frames to seed the corpus: one v1 frame of each sampleRequests entry,
// so the seeds alone reach every request's Decode, a compressed v2
// segment, and a v2 segment of several v1 request frames.
func fuzzSeedRequestFrames() [][]byte {
	var seeds [][]byte
	for _, req := range sampleRequests {
		seeds = append(seeds, requestFrames(req))
	}
	// A compressible v2 segment: one v1 frame with a repetitive payload.
	seg, _ := AppendWireSegRequestFrame(nil, rawFrame(OpPing, bytes.Repeat([]byte{0x42}, 300)))
	seeds = append(seeds, seg)
	// A v2 segment of the frames a small drawing batch sends.
	var batch []Request
	for i := 0; i < 3; i++ {
		batch = append(batch, &PolyFillRectangleReq{Drawable: 3, Gc: 4, Rects: []Rect{{X: int16(i), Y: 2, W: 3, H: 4}}})
	}
	seg, _ = AppendWireSegRequestFrame(nil, requestFrames(append(batch, &PingReq{})...))
	seeds = append(seeds, seg)
	return seeds
}

// readTwice reads data with a nil scratch buffer and again with a
// scratch buffer large enough to hold it and full of stale bytes, as a
// read loop passes the previous frame's buffer back in. Both reads must
// give the same tag, payload and error, and the second must read into
// the scratch buffer rather than allocate.
func readTwice(t *testing.T, data []byte, read func(r io.Reader, buf []byte) (uint16, []byte, error)) (tag uint16, payload []byte, err error) {
	tag, payload, err = read(bytes.NewReader(data), nil)
	scratch := make([]byte, len(data)+6)
	for i := range scratch {
		scratch[i] = byte(i*7 + 0xa5)
	}
	tag2, payload2, err2 := read(bytes.NewReader(data), scratch)
	if tag2 != tag || !bytes.Equal(payload2, payload) || fmt.Sprint(err2) != fmt.Sprint(err) {
		t.Fatalf("stale scratch read tag %d, payload %x, err %v; nil scratch read tag %d, payload %x, err %v",
			tag2, payload2, err2, tag, payload, err)
	}
	if len(payload2) > 0 && &payload2[0] != &scratch[0] {
		t.Fatal("the payload was not read into a scratch buffer large enough to hold it")
	}
	return tag, payload, err
}

// FuzzReadRequestFrame drives the full client→server decode path —
// outer v1 framing through the server's one frame reader, then (for
// OpWireSeg) the segment envelope, the optional flate body and the v1
// request frames inside it. The properties under test are "no panic,
// no out-of-bounds": any malformed input must come back as an error;
// and a reused scratch buffer reads what a fresh one does.
func FuzzReadRequestFrame(f *testing.F) {
	for _, s := range fuzzSeedRequestFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readTwice(t, data, ReadRequestFrame)
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
// framing through the client's one frame reader, then (for
// KindWireSeg) the envelope and the concatenated inner server frames,
// with the same properties as FuzzReadRequestFrame.
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
		kind, payload, err := readTwice(t, data, func(r io.Reader, buf []byte) (uint16, []byte, error) {
			kind, payload, err := ReadServerFrame(r, buf)
			return uint16(kind), payload, err
		})
		if err != nil || kind != uint16(KindWireSeg) {
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
