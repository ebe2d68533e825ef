package service

import (
	"bytes"
	"hash/maphash"
	"sync"

	"repro/internal/lru"
)

// memoBodyCap is the largest request body the hit-path memos store.
// Table-1 plan bodies are a few hundred bytes; a larger body takes the
// streaming decode path every time.
const memoBodyCap = 4 << 10

// bodyMemo maps (endpoint, request body bytes) to the string the body
// resolved to — a Backend's response-cache key, a Frontend's routing
// spec — so a repeated body is answered without being decoded, parsed
// or canonicalized again. Entries are found by a seeded hash of the
// body and confirmed by comparing the stored bytes, so a hash collision
// is a miss, never a wrong key. Only bodies of at most memoBodyCap
// bytes that resolved successfully are stored. Safe for concurrent use.
type bodyMemo struct {
	seed    maphash.Seed
	entries *lru.Cache[memoKey, memoEntry]
}

// memoKey locates a memo entry: the endpoint and the body's hash.
type memoKey struct {
	endpoint string
	sum      uint64
}

// memoEntry is one memoized body and the string it resolved to; a
// Backend's key string is the one the response cache holds, not a copy.
type memoEntry struct {
	body []byte
	key  string
}

func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{seed: maphash.MakeSeed(), entries: lru.New[memoKey, memoEntry](capacity)}
}

// get returns the string body resolved to at endpoint.
//
//repro:hotpath
func (m *bodyMemo) get(endpoint string, body []byte) (string, bool) {
	e, ok := m.entries.Get(memoKey{endpoint, maphash.Bytes(m.seed, body)})
	if !ok || !bytes.Equal(e.body, body) {
		return "", false
	}
	return e.key, true
}

// put records that body resolved to key at endpoint. body is copied.
func (m *bodyMemo) put(endpoint string, body []byte, key string) {
	m.entries.Put(memoKey{endpoint, maphash.Bytes(m.seed, body)}, memoEntry{body: bytes.Clone(body), key: key})
}

// bodyBufs recycles the buffers request bodies are read into: one byte
// past memoBodyCap tells a memoizable body from a larger one.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, memoBodyCap+1)
	return &b
}}

// errReader replays a read error that interrupted reading the head of a
// body, so the decoder reports it exactly where it occurred.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
