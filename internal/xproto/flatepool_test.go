package xproto

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// repetitiveFrames renders n fill requests that compress well.
func repetitiveFrames(n int, drawable ID) []byte {
	var w Writer
	for i := 0; i < n; i++ {
		w.RequestFrame(&PolyFillRectangleReq{
			Drawable: drawable, Gc: 4, Rects: []Rect{{X: int16(i), Y: 10, W: 20, H: 20}},
		})
	}
	return w.Bytes()
}

// TestSegmentCompressConcurrent compresses from many goroutines at once:
// pooled compressors must never be shared, so every segment decodes to
// exactly its own input.
func TestSegmentCompressConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				raw := repetitiveFrames(10+g+i%7, ID(g*1000+i))
				frame, compressed := AppendWireSegRequestFrame(nil, raw)
				if !compressed {
					t.Errorf("goroutine %d segment %d did not compress", g, i)
					return
				}
				op, payload, err := ReadRequestFrame(bytes.NewReader(frame), nil)
				if err != nil || op != OpWireSeg {
					t.Errorf("goroutine %d segment %d: op %d, err %v", g, i, op, err)
					return
				}
				got, _, err := DecodeSegmentPayload(payload, nil)
				if err != nil || !bytes.Equal(got, raw) {
					t.Errorf("goroutine %d segment %d does not decode to its input (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCompressorReusedAfterGC: a compressor released before a garbage
// collection is found again by the next compression, whichever P it
// runs on, instead of a new ~1 MiB one being built.
func TestCompressorReusedAfterGC(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops released items at random")
	}
	raw := repetitiveFrames(50, 3)
	AppendWireSegRequestFrame(nil, raw)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	AppendWireSegRequestFrame(nil, raw)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("a compression after one GC allocated %d bytes: the pooled compressor was not reused", n)
	}
}
