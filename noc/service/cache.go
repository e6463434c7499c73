package service

import "container/list"

// lruCache is a plain LRU over string keys. It is not concurrency-safe;
// the Evaluator guards it with its own mutex. Keys are full canonical
// spec keys (noc.Spec.AppendKey), not fingerprints, so hash collisions on
// hostile input cannot alias two different specs onto one entry.
type lruCache[V any] struct {
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lruCache[V] {
	return &lruCache[V]{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// get looks key up by its bytes: the map index converts without
// copying, so a hit allocates nothing and only the caller that goes on
// to add pays for a string key.
func (c *lruCache[V]) get(key []byte) (V, bool) {
	if el, ok := c.m[string(key)]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// find returns (and refreshes) the most recently used value match
// accepts, walking the list in place.
func (c *lruCache[V]) find(match func(V) bool) (V, bool) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if val := el.Value.(*lruEntry[V]).val; match(val) {
			c.ll.MoveToFront(el)
			return val, true
		}
	}
	var zero V
	return zero, false
}

// add inserts (or refreshes) key and returns the number of entries
// evicted to stay within the bound.
func (c *lruCache[V]) add(key string, val V) int {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return 0
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

func (c *lruCache[V]) len() int { return c.ll.Len() }
