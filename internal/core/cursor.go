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
// value, including the tail-tolerance and bounded-support stopping
// rules, but keeps only O(1) state (the recurrence needs just t_{i-1}
// and t_{i-2}), so scoring a brute-force candidate allocates nothing.
//
//repro:hotpath
type RecurrenceCursor struct {
	m       CostModel
	d       dist.Distribution
	t1      float64
	tailEps float64
	hi      float64
	bounded bool
	i       int
	prev2   float64
	prev    float64
	err     error
}

// NewRecurrenceCursor returns a cursor over the same values as
// SequenceFromFirstTail(m, d, t1, tailEps). It is returned by value so
// callers in tight loops keep it on the stack.
func NewRecurrenceCursor(m CostModel, d dist.Distribution, t1, tailEps float64) RecurrenceCursor {
	_, hi := d.Support()
	return RecurrenceCursor{
		m: m, d: d, t1: t1, tailEps: tailEps,
		hi: hi, bounded: !math.IsInf(hi, 1),
	}
}

// Reset repositions the cursor at a new first reservation, keeping the
// cost model, distribution and tail tolerance. A grid scan resets one
// cursor per candidate instead of constructing one, so scoring a whole
// block costs a single allocation (the cursor escaping into the scorer
// once), not one per candidate.
func (c *RecurrenceCursor) Reset(t1 float64) {
	c.t1 = t1
	c.i = 0
	c.prev2, c.prev = 0, 0
	c.err = nil
}

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
	if c.i == 0 {
		v = c.t1
		if c.bounded && v >= c.hi {
			v = c.hi
		}
	} else {
		if c.bounded && c.prev >= c.hi {
			c.err = ErrEnd // support covered; the sequence is complete
			return math.NaN(), c.err
		}
		v = NextReservation(c.m, c.d, c.prev2, c.prev)
		sfPrev := math.NaN()
		if v <= c.prev || math.IsNaN(v) {
			sfPrev = c.d.Survival(c.prev)
		}
		if v > c.prev {
			if c.bounded && v >= c.hi {
				v = c.hi // stopping rule: close with b
			}
		} else if sfPrev <= c.tailEps {
			// Breakdown in the negligible tail: close with b (bounded)
			// or extend geometrically (unbounded).
			if c.bounded {
				v = c.hi
			} else {
				v = 2 * c.prev
			}
		}
	}
	if math.IsNaN(v) || v <= c.prev {
		c.err = ErrNonIncreasing
		return math.NaN(), c.err
	}
	c.i++
	c.prev2, c.prev = c.prev, v
	return v, nil
}
