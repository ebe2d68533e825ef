//go:build !race

package service

// raceEnabled says whether the race detector is on: it makes
// sync.Pool.Put drop items at random, which the allocation pins
// allow for (check.sh runs this package with -race too).
const raceEnabled = false
