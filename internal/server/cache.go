package server

// The plan-fingerprint result cache: encoded NDJSON result bodies
// keyed by stark.Dataset.Fingerprint(), held in an LRU bounded by a
// byte budget. A hit serves the stored bytes without touching the
// engine at all — zero partitions scheduled, zero elements scanned.
// Invalidation is structural rather than explicit: a fingerprint
// embeds the engine generation of the dataset it was minted against,
// so re-registering a dataset orphans its entries (they age out of
// the LRU, unreachable by any future query).

import (
	"container/list"
	"sync"
)

// CacheStats is the observable state of a ResultCache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Rejected counts results too large for the per-entry budget.
	Rejected int64 `json:"rejected"`
}

type cacheEntry struct {
	key  string
	body [][]byte // the chunks the reply was streamed in
	size int64    // their summed lengths
	rows int64
}

// ResultCache is a byte-budgeted LRU of encoded query results. All
// methods are safe for concurrent use.
type ResultCache struct {
	mu            sync.Mutex
	maxBytes      int64
	maxEntryBytes int64
	curBytes      int64
	ll            *list.List // front = most recently used
	items         map[string]*list.Element
	hits, misses  int64
	evictions     int64
	rejected      int64
}

// NewResultCache returns a cache bounded by maxBytes in total and
// maxEntryBytes per entry (<= 0 selects maxBytes/8).
func NewResultCache(maxBytes, maxEntryBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if maxEntryBytes <= 0 {
		maxEntryBytes = maxBytes / 8
	}
	return &ResultCache{
		maxBytes:      maxBytes,
		maxEntryBytes: maxEntryBytes,
		ll:            list.New(),
		items:         make(map[string]*list.Element),
	}
}

// MaxEntryBytes returns the per-entry budget, so producers can stop
// buffering a result that can never be admitted.
func (c *ResultCache) MaxEntryBytes() int64 { return c.maxEntryBytes }

// Get returns the cached body and row count for key, marking it most
// recently used. The returned slices must not be modified.
func (c *ResultCache) Get(key string) ([][]byte, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.rows, true
}

// Put stores body under key, evicting least-recently-used entries
// until the byte budget holds. Bodies whose chunks sum to more than the
// per-entry budget are rejected. The cache takes ownership of body.
func (c *ResultCache) Put(key string, body [][]byte, rows int64) {
	var size int64
	for _, chunk := range body {
		size += int64(len(chunk))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxEntryBytes {
		c.rejected++
		return
	}
	if el, ok := c.items[key]; ok {
		// Replace in place (an identical fingerprint means identical
		// results, but a concurrent miss may double-fill).
		e := el.Value.(*cacheEntry)
		c.curBytes += size - e.size
		e.body, e.size, e.rows = body, size, rows
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, size: size, rows: rows})
		c.curBytes += size
	}
	for c.curBytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.curBytes -= e.size
		c.evictions++
	}
}

// Contains reports whether key is cached, without counting a hit or
// touching recency — the EXPLAIN endpoint's peek.
func (c *ResultCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Stats returns a snapshot of the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.curBytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Rejected:  c.rejected,
	}
}
