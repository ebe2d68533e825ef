// Package copylocksmod is a standalone fixture module for go vet's
// copylocks pass, the repository's lock-copy check: every line marked
// want copies a lock-bearing value and draws exactly one report, and
// every other line draws none.
package copylocksmod

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int
}

type nested struct {
	inner counter
	name  string
}

type registry struct {
	g     counter
	slots []counter
}

// Parameters and receivers.

func take(c counter) int { // want `passes lock by value: .*counter contains sync.Mutex`
	return c.n
}

func takeAgain(c counter) {} // want `passes lock by value: .*counter contains sync.Mutex`

func (c counter) valueMethod() int { // want `passes lock by value: .*counter contains sync.Mutex`
	return c.n
}

func waitGroupByValue(wg sync.WaitGroup) { // want `passes lock by value: sync.WaitGroup`
	wg.Wait()
}

func nestedByValue(a nested) string { // want `passes lock by value: .*nested contains .*counter`
	return a.name
}

// Assignments, declarations and range clauses.

func copyOutOfPointer(c *counter) int {
	d := *c // want `assignment copies lock value to d: .*counter`
	return d.n
}

func copyVariable(a *nested) string {
	var b nested
	b = *a // want `assignment copies lock value to b: .*nested`
	return b.name
}

func declareCopy(c *counter) int {
	var d = *c // want `variable declaration copies lock value to d: .*counter`
	return d.n
}

func rangeCopiesLock(cs []counter) int {
	total := 0
	for _, c := range cs { // want `range var c copies lock: .*counter`
		total += c.n
	}
	return total
}

// Returns, call arguments and composite literals.

func (r *registry) snapshot() counter {
	return r.g // want `return copies lock value: .*counter`
}

func (r *registry) slot(i int) counter {
	return r.slots[i] // want `return copies lock value: .*counter`
}

func flaggedCalls(r *registry) int {
	var c counter
	return take(r.g) + // want `call of take copies lock value: .*counter`
		take(c) // want `call of take copies lock value: .*counter`
}

func flaggedLiteral(c *counter) *registry {
	return &registry{
		g: *c, // want `literal copies lock value from \*c: .*counter`
	}
}

// sync/atomic types carry a no-copy marker; the copy of a struct that
// holds one is a lock copy too.

type backend struct {
	addr string
	down atomic.Bool
}

func addrOf(b *backend) string {
	c := *b // want `assignment copies lock value to c: .*backend contains sync/atomic.Bool`
	return c.addr
}

// The shapes below are sound and must NOT be reported.

func takePtr(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) pointerMethod() int { return c.n }

func fresh() *counter {
	c := counter{} // fresh composite literal: nothing can hold its lock yet
	return &c
}

func allowed(r *registry, b *backend) bool {
	takePtr(&r.g)
	take(counter{})
	takePtr(new(counter)) // new's operand names a type, it copies nothing
	for i := range r.slots {
		takePtr(&r.slots[i])
	}
	return b.down.Load()
}
