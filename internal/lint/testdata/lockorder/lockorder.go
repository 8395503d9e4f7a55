// Package fixtures exercises the lock-order analyzer: the declared
// chain on box (order, leaf group, independent chain), acquisition
// cycles direct and through a helper call, and same-class nesting on
// cell, however it is ordered.
package fixtures

import "sync"

// box carries the declared order the bad functions below each violate
// one way.
//
// lock-order: first -> second -> {leafA, leafB}
// lock-order: solo
type box struct {
	first  sync.Mutex
	second sync.Mutex
	leafA  sync.Mutex
	leafB  sync.Mutex
	solo   sync.Mutex
}

// cell is nested with itself below; it is deliberately absent from
// the declaration — same-class nesting is checked structurally.
type cell struct {
	mu sync.Mutex
	id uint32
}

// goodNest follows the declared order exactly.
func (b *box) goodNest() {
	b.first.Lock()
	b.second.Lock()
	b.leafA.Lock()
	b.leafA.Unlock()
	b.second.Unlock()
	b.first.Unlock()
}

// badNest acquires against the declared order (and, together with
// goodNest's first->second edge, closes a cycle).
func (b *box) badNest() {
	b.second.Lock()
	b.first.Lock()
	b.first.Unlock()
	b.second.Unlock()
}

// badGroup nests two members of the leaf group.
func (b *box) badGroup() {
	b.leafA.Lock()
	b.leafB.Lock()
	b.leafB.Unlock()
	b.leafA.Unlock()
}

// badIndependent holds mutexes from two independent chains at once.
func (b *box) badIndependent() {
	b.first.Lock()
	b.solo.Lock()
	b.solo.Unlock()
	b.first.Unlock()
}

// lockLeafA is the helper badViaCall reaches a group member through.
func (b *box) lockLeafA() {
	b.leafA.Lock()
	b.leafA.Unlock()
}

// badViaCall nests group members interprocedurally: the edge comes
// from the call, one level deep, and closes a cycle with badGroup.
func (b *box) badViaCall() {
	b.leafB.Lock()
	b.lockLeafA()
	b.leafB.Unlock()
}

// orderedPair locks two cells in ID order: still one class nested.
func orderedPair(x, y *cell) {
	lo, hi := x, y
	if y.id < x.id {
		lo, hi = y, x
	}
	lo.mu.Lock()
	hi.mu.Lock()
	hi.mu.Unlock()
	lo.mu.Unlock()
}

// unorderedPair locks two cells with no fixed order.
func unorderedPair(x, y *cell) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// outer reaches box's mutexes through promoted fields: the classes are
// still box's, so the declared chains apply.
type outer struct {
	box
}

// badPromoted holds mutexes from two independent chains at once,
// through promoted fields.
func (o *outer) badPromoted() {
	o.leafB.Lock()
	o.solo.Lock()
	o.solo.Unlock()
	o.leafB.Unlock()
}
