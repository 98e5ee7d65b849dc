package cache

import "slices"

// Contains reports whether addr's line is currently cached, without
// touching the replacement order.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.set(addr)
	return slices.Contains(set, tag)
}
