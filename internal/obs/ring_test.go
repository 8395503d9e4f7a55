package obs

import (
	"fmt"
	"sync"
	"testing"
)

// These tests pin the Ring invariants the span and wire tracers depend
// on: the retained window is exactly the newest capacity entries in
// chronological order, sequence numbers are global (wraparound never
// reuses one), and concurrent appenders neither lose nor duplicate
// sequence numbers.

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
