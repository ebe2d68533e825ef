package core

import (
	"math"

	"repro/internal/dist"
)

// Cursor yields the reservations of a strictly increasing sequence one
// at a time, in order. Next returns ErrEnd once a finite sequence is
// exhausted, ErrNonIncreasing if the underlying rule produces a value
// not strictly above its predecessor, and ErrTooLong past
// MaxSequenceLen values. After any error, every further Next call
// returns the same error.
//
// Cursors exist for the hot scoring paths: evaluating a candidate
// sequence against an empirical workload only needs each t_i once, so a
// cursor avoids both the per-candidate Sequence allocation and the
// per-worker Clone that the materialized representation requires.
type Cursor interface {
	Next() (float64, error)
}

// SequenceCursor adapts a *Sequence to the Cursor interface by walking
// At(i). Advancing the cursor materializes the sequence's prefix, so a
// SequenceCursor must not be shared — nor its sequence used — across
// goroutines.
//
//repro:hotpath
type SequenceCursor struct {
	s *Sequence
	i int
}

// Cursor returns a cursor positioned before the first reservation. The
// returned value is self-contained; copying it mid-iteration forks the
// position.
func (s *Sequence) Cursor() SequenceCursor {
	return SequenceCursor{s: s}
}

// Next implements Cursor.
func (c *SequenceCursor) Next() (float64, error) {
	v, err := c.s.At(c.i)
	if err != nil {
		return v, err
	}
	c.i++
	return v, nil
}

// RecurrenceCursor iterates the Proposition-1 sequence — a first
// reservation t1 followed by the Eq.-(11) recurrence — without
// materializing it. It reproduces SequenceFromFirstTail value for
// value through the same walk, but keeps only O(1) state: t_{i-1} and
// S(t_{i-2}), so each step costs one SurvivalPDF evaluation and
// scoring a brute-force candidate allocates nothing.
//
//repro:hotpath
type RecurrenceCursor struct {
	w      walk
	sf0    float64 // S(t_0) = Survival(0)
	t1     float64
	i      int
	prev   float64 // t_{i-1}
	sfPrev float64 // S(t_{i-2})
	err    error
}

// NewRecurrenceCursor returns a cursor over the same values as
// SequenceFromFirstTail(m, d, t1, tailEps). It is returned by value so
// callers in tight loops keep it on the stack.
func NewRecurrenceCursor(m CostModel, d dist.Distribution, t1, tailEps float64) RecurrenceCursor {
	c := RecurrenceCursor{w: newWalk(affine(m), d, tailEps), sf0: d.Survival(0)}
	c.Reset(t1)
	return c
}

// Reset repositions the cursor at a new first reservation, keeping the
// cost model, distribution and tail tolerance. A grid scan resets one
// cursor per candidate instead of constructing one, so scoring a whole
// block costs a single allocation (the cursor escaping into the scorer
// once), not one per candidate.
func (c *RecurrenceCursor) Reset(t1 float64) {
	c.t1 = t1
	c.i = 0
	c.prev, c.sfPrev = 0, c.sf0
	c.err = nil
}

// First returns the first reservation Next will yield: t1 clamped to
// the support's bound, or ErrNonIncreasing when it is not positive. It
// does not advance the cursor.
func (c *RecurrenceCursor) First() (float64, error) { return c.w.first(c.t1) }

// Next implements Cursor.
func (c *RecurrenceCursor) Next() (float64, error) {
	if c.err != nil {
		return math.NaN(), c.err
	}
	if c.i >= MaxSequenceLen {
		c.err = ErrTooLong
		return math.NaN(), c.err
	}
	var v float64
	var err error
	if c.i == 0 {
		v, err = c.w.first(c.t1)
	} else {
		sf, f := c.w.d.SurvivalPDF(c.prev)
		v, err = c.w.next(c.prev, f, sf, c.sfPrev)
		c.sfPrev = sf
	}
	if err != nil {
		c.err = err
		return math.NaN(), err
	}
	c.i++
	c.prev = v
	return v, nil
}
