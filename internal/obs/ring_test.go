package obs

import (
	"fmt"
	"sync"
	"testing"
)

// These tests pin the Ring invariants the span and wire tracers depend
// on: the retained window is exactly the newest capacity entries in
// chronological order, sequence numbers are global (wraparound never
// reuses one, only Reset restarts them), concurrent appenders neither
// lose nor duplicate sequence numbers, and a reader racing them sees a
// whole window.

func TestRingCapacityBound(t *testing.T) {
	const capacity = 8
	r := NewRing[string](capacity)
	for i := 0; i < 5*capacity; i++ {
		r.Append(fmt.Sprintf("line %d", i))
		if r.Len() > capacity {
			t.Fatalf("Len = %d exceeds capacity %d after %d appends", r.Len(), capacity, i+1)
		}
	}
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want full ring %d", r.Len(), capacity)
	}
	if r.Total() != 5*capacity {
		t.Fatalf("Total = %d, want %d", r.Total(), 5*capacity)
	}
}

func TestRingClampsCapacityToOne(t *testing.T) {
	for _, c := range []int{-3, 0} {
		r := NewRing[string](c)
		r.Append("a")
		r.Append("b")
		last := r.Last(0)
		if len(last) != 1 || last[0].Val != "b" {
			t.Fatalf("NewRing[string](%d): retained %v, want just the newest entry", c, last)
		}
	}
}

func TestRingWraparoundOrdering(t *testing.T) {
	const capacity = 4
	r := NewRing[string](capacity)
	// Land mid-buffer after wrapping twice, so the window straddles the
	// physical end of the backing array.
	const total = 2*capacity + 2
	for i := 1; i <= total; i++ {
		if seq := r.Append(fmt.Sprintf("line %d", i)); seq != uint64(i) {
			t.Fatalf("Append #%d returned seq %d", i, seq)
		}
	}
	entries := r.Last(0)
	if len(entries) != capacity {
		t.Fatalf("Last(0) returned %d entries, want %d", len(entries), capacity)
	}
	for i, e := range entries {
		wantSeq := uint64(total - capacity + 1 + i)
		if e.Seq != wantSeq || e.Val != fmt.Sprintf("line %d", wantSeq) {
			t.Errorf("entries[%d] = {%d %q}, want seq %d in chronological order", i, e.Seq, e.Val, wantSeq)
		}
	}
	// A partial window is the newest n, still oldest-first.
	last2 := r.Last(2)
	if len(last2) != 2 || last2[0].Seq != uint64(total-1) || last2[1].Seq != uint64(total) {
		t.Fatalf("Last(2) = %v, want the two newest entries oldest-first", last2)
	}
}

// TestRingWraparound pins the counts of a wrapped ring, and that Reset
// empties it and restarts sequence numbering.
func TestRingWraparound(t *testing.T) {
	const capacity, total = 4, 10
	r := NewRing[string](capacity)
	for i := 0; i < total; i++ {
		r.Append("x")
	}
	if r.Len() != capacity || r.Total() != total || r.Dropped() != total-capacity {
		t.Fatalf("Len/Total/Dropped = %d/%d/%d, want %d/%d/%d",
			r.Len(), r.Total(), r.Dropped(), capacity, total, total-capacity)
	}
	// A window larger than the ring is what the ring retains.
	if got := len(r.Last(100)); got != capacity {
		t.Fatalf("Last(100) returned %d entries, want %d", got, capacity)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Last(0)) != 0 {
		t.Fatal("Reset left state behind")
	}
	if seq := r.Append("fresh"); seq != 1 {
		t.Fatalf("seq after Reset = %d, want 1", seq)
	}
}

func TestRingConcurrentAppend(t *testing.T) {
	const (
		goroutines = 8
		each       = 500
		capacity   = 64
	)
	r := NewRing[string](capacity)
	var wg sync.WaitGroup
	seqs := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seqs[g] = append(seqs[g], r.Append("x"))
				if i%17 == 0 {
					r.Last(8) // readers racing writers, for -race
					r.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != goroutines*each {
		t.Fatalf("Total = %d, want %d", r.Total(), goroutines*each)
	}
	// Every append got a unique sequence number and the full range was
	// handed out exactly once.
	seen := make(map[uint64]bool, goroutines*each)
	for g := range seqs {
		prev := uint64(0)
		for _, s := range seqs[g] {
			if seen[s] {
				t.Fatalf("sequence %d issued twice", s)
			}
			seen[s] = true
			if s <= prev {
				t.Fatalf("sequence not increasing within a goroutine: %d after %d", s, prev)
			}
			prev = s
		}
	}
	for s := uint64(1); s <= goroutines*each; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d never issued", s)
		}
	}
	// The retained window is the newest capacity entries, contiguous.
	entries := r.Last(0)
	if len(entries) != capacity {
		t.Fatalf("retained %d entries, want %d", len(entries), capacity)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq != entries[i-1].Seq+1 {
			t.Fatalf("retained window not contiguous: %d then %d", entries[i-1].Seq, entries[i].Seq)
		}
	}
	if entries[len(entries)-1].Seq != goroutines*each {
		t.Fatalf("newest retained seq = %d, want %d", entries[len(entries)-1].Seq, goroutines*each)
	}
}

// TestRingConcurrent pins that Last is atomic: a reader racing
// appenders always gets a contiguous window no longer than the ring.
func TestRingConcurrent(t *testing.T) {
	const (
		writers  = 4
		each     = 1000
		capacity = 32
	)
	r := NewRing[string](capacity)
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			w := r.Last(0)
			if len(w) > capacity {
				t.Errorf("Last(0) returned %d entries, ring holds %d", len(w), capacity)
				return
			}
			for i := 1; i < len(w); i++ {
				if w[i].Seq != w[i-1].Seq+1 {
					t.Errorf("window not contiguous: %d then %d", w[i-1].Seq, w[i].Seq)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Append("x")
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if r.Total() != writers*each {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*each)
	}
}
