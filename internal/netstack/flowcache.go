package netstack

// FlowCache is a destination-keyed forwarding cache: a hit skips the
// longest-prefix-match lookup and the ARP resolution, replacing them
// with one map probe — the classic "fast path" optimization §5.4 of the
// paper credits with postponing livelock ("aggressive optimization,
// 'fast-path' designs, and removal of unnecessary steps all help to
// postpone arrival of livelock").
type FlowCache struct {
	cap     int
	entries map[Addr]FlowEntry
	order   []Addr // FIFO eviction order

	// Hits and Misses count lookups.
	Hits, Misses uint64
}

// FlowEntry is the cached forwarding decision for a destination.
type FlowEntry struct {
	IfIndex int
	DstMAC  MAC
	SrcMAC  MAC
}

// NewFlowCache returns a cache holding up to capacity destinations.
func NewFlowCache(capacity int) *FlowCache {
	if capacity <= 0 {
		panic("netstack: non-positive flow-cache capacity")
	}
	return &FlowCache{
		cap:     capacity,
		entries: make(map[Addr]FlowEntry, capacity),
	}
}

// Lookup returns the cached decision for dst.
func (c *FlowCache) Lookup(dst Addr) (FlowEntry, bool) {
	e, ok := c.entries[dst]
	if ok {
		c.Hits++
	} else {
		c.Misses++
	}
	return e, ok
}

// Contains reports whether dst is cached without counting a lookup
// (used by cost-model peeks).
func (c *FlowCache) Contains(dst Addr) bool {
	_, ok := c.entries[dst]
	return ok
}

// Insert caches a decision, evicting the oldest entry if full.
func (c *FlowCache) Insert(dst Addr, e FlowEntry) {
	if _, exists := c.entries[dst]; !exists {
		if len(c.order) == c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
		c.order = append(c.order, dst)
	}
	c.entries[dst] = e
}

// Len returns the number of cached destinations.
func (c *FlowCache) Len() int { return len(c.entries) }
