package store

import (
	"container/list"
	"sync"
)

// Memory is a bounded least-recently-used in-process store. It
// amortizes the repeated-query pattern of paper sweeps: re-submitting a
// config already simulated serves the cached bytes instead of
// re-running. It holds at most its capacity in entries and
// MemoryMaxBytes in payload, whichever binds first. A capacity <= 0
// disables the store (every Get misses).
type Memory struct {
	mu    sync.Mutex
	cap   int
	bytes int64
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type memEntry struct {
	key string
	val []byte
}

// NewMemory returns an LRU store bounded to capacity entries and
// MemoryMaxBytes of payload.
func NewMemory(capacity int) *Memory {
	return &Memory{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the stored value and marks it most recently used.
func (c *Memory) Get(key string) ([]byte, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).val, true
}

// Put inserts or refreshes a value, evicting least recently used
// entries while over either bound. A single value larger than the byte
// bound is kept, as in Dir. It never fails.
func (c *Memory) Put(key string, val []byte) error {
	if c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*memEntry)
		c.bytes += int64(len(val) - len(ent.val))
		ent.val = val
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&memEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.order.Len() > c.cap || c.bytes > MemoryMaxBytes && c.order.Len() > 1 {
		last := c.order.Back()
		ent := last.Value.(*memEntry)
		c.order.Remove(last)
		delete(c.items, ent.key)
		c.bytes -= int64(len(ent.val))
	}
	return nil
}

// Len reports the number of stored entries.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
