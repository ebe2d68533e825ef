package service

import (
	"sync"

	"repro/internal/lru"
)

// flight is one in-flight computation in a flightGroup. body and err
// are set before done is closed.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// flightGroup coalesces concurrent computations that share a key in
// front of a response cache: a caller gets the key's cached bytes, or
// joins the key's running flight, or starts one. A flight computes on
// one goroutine of its own, so its callers wait on done with their own
// deadlines and none is held by a computation it gave up on. A
// successful result is stored in the cache before the key is
// forgotten, and the cache is checked under the same lock that finds
// flights, so a key misses once while its bytes stay cached.
type flightGroup struct {
	mu      sync.Mutex
	cache   *lru.Cache[string, []byte]
	flights map[string]*flight

	// onJoin, when non-nil (tests only), is invoked with the key each
	// time a caller joins an in-flight computation instead of starting
	// its own. It lets tests detect that every expected duplicate has
	// coalesced before they unblock the leader.
	onJoin func(key string)
}

// join returns key's cached bytes when the cache holds them (f is
// nil). Otherwise it returns key's flight: the running one, which
// shared reports, or a new one computing fn.
func (g *flightGroup) join(key string, fn func() ([]byte, error)) (body []byte, f *flight, shared bool) {
	g.mu.Lock()
	if b, ok := g.cache.Get(key); ok {
		g.mu.Unlock()
		return b, nil, false
	}
	if running, ok := g.flights[key]; ok {
		g.mu.Unlock()
		if g.onJoin != nil {
			g.onJoin(key)
		}
		return nil, running, true
	}
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()
	go g.run(key, f, fn)
	return nil, f, false
}

// run computes f, caches a successful result, forgets the key and
// releases f's waiters.
func (g *flightGroup) run(key string, f *flight, fn func() ([]byte, error)) {
	f.body, f.err = fn()
	if f.err == nil {
		g.cache.Put(key, f.body)
	}
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
}
