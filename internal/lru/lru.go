// Package lru is the service's one software cache: a least-recently-used
// map whose entries carry a cost and whose total cost is held to a
// budget, plus a single-flight group that lets concurrent callers share
// one computation of a key.
//
// Both are caller-locked. Every user keeps state beside its cache under
// one mutex it already holds (the runner's flights, the trace cache's
// in-flight bytes, the checkpoint store's offset index), so a lock inside
// this package would only add a second lock to order against that one.
package lru

import "context"

// Cache maps keys to values in recency order. An entry's cost counts
// against the budget: the runner and the server price every entry at 1
// (the budget is an entry count), the trace cache and the checkpoint
// store price entries by their bytes. The zero value is not usable;
// construct with New.
type Cache[K comparable, V any] struct {
	// OnDrop, when set, is called for every entry that leaves the cache
	// through eviction or Remove, so callers can keep side indexes in step.
	OnDrop func(K, V)

	budget int64
	used   int64
	items  map[K]*node[K, V]
	root   node[K, V] // sentinel: root.next is the newest entry, root.prev the oldest
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// New returns an empty cache whose entries may cost up to budget in total.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, items: make(map[K]*node[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value for k and makes it the newest entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Peek returns the value for k without changing its recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Add stores v under k as the newest entry, replacing any previous value
// and cost, then evicts the oldest entries until the total cost fits the
// budget. It returns the number of entries evicted.
func (c *Cache[K, V]) Add(k K, v V, cost int64) int {
	n, ok := c.items[k]
	if ok {
		c.unlink(n)
		c.used -= n.cost
		n.val, n.cost = v, cost
	} else {
		n = &node[K, V]{key: k, val: v, cost: cost}
		c.items[k] = n
	}
	c.used += cost
	c.pushFront(n)
	return c.Trim(0)
}

// Remove drops k, reporting whether it was present.
func (c *Cache[K, V]) Remove(k K) bool {
	n, ok := c.items[k]
	if ok {
		c.drop(n)
	}
	return ok
}

// Trim evicts the oldest entries until used+reserve fits the budget or the
// cache is empty, and returns the number evicted. The reserve is cost held
// outside the cache that shares its budget, such as the trace cache's
// captures still in flight.
func (c *Cache[K, V]) Trim(reserve int64) int {
	evicted := 0
	for c.root.prev != &c.root && c.used+reserve > c.budget {
		c.drop(c.root.prev)
		evicted++
	}
	return evicted
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Used reports the total cost of the entries.
func (c *Cache[K, V]) Used() int64 { return c.used }

// Budget reports the cost budget.
func (c *Cache[K, V]) Budget() int64 { return c.budget }

// Values returns the values newest first.
func (c *Cache[K, V]) Values() []V {
	out := make([]V, 0, len(c.items))
	for n := c.root.next; n != &c.root; n = n.next {
		out = append(out, n.val)
	}
	return out
}

func (c *Cache[K, V]) drop(n *node[K, V]) {
	c.unlink(n)
	delete(c.items, n.key)
	c.used -= n.cost
	if c.OnDrop != nil {
		c.OnDrop(n.key, n.val)
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	c.root.next.prev = n
	c.root.next = n
}

// Flight is one in-progress computation that later callers of the same
// key wait on instead of repeating.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Join waits for the flight's outcome. If ctx ends first it returns
// ctx.Err(); the computation itself carries on for its lead and any other
// waiters.
func (f *Flight[V]) Join(ctx context.Context) (V, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Group tracks the flights in progress by key. Like Cache it is
// caller-locked. The zero value is an empty group.
type Group[K comparable, V any] struct {
	flights map[K]*Flight[V]
}

// Lead returns the flight in progress for k and false, or registers a new
// one and returns it with true. A caller that gets true leads: it must
// compute the value and call Finish.
func (g *Group[K, V]) Lead(k K) (*Flight[V], bool) {
	if f, ok := g.flights[k]; ok {
		return f, false
	}
	if g.flights == nil {
		g.flights = make(map[K]*Flight[V])
	}
	f := &Flight[V]{done: make(chan struct{})}
	g.flights[k] = f
	return f, true
}

// Finish publishes the lead's outcome for k to every waiter and retires
// the flight, so the next Lead for k starts a new one.
func (g *Group[K, V]) Finish(k K, v V, err error) {
	f := g.flights[k]
	delete(g.flights, k)
	f.val, f.err = v, err
	close(f.done)
}

// Len reports the number of flights in progress.
func (g *Group[K, V]) Len() int { return len(g.flights) }
