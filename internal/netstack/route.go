package netstack

import (
	"errors"
	"fmt"
	"math/bits"
)

// Route is a routing-table entry: packets whose destination matches the
// prefix are sent out interface IfIndex toward NextHop. A zero NextHop
// means the destination is directly attached (deliver to Dst itself).
type Route struct {
	Prefix  Addr
	Bits    int // prefix length, 0..32
	NextHop Addr
	IfIndex int
}

// String renders the route.
func (r Route) String() string {
	return fmt.Sprintf("%v/%d via %v dev %d", r.Prefix, r.Bits, r.NextHop, r.IfIndex)
}

// RoutingTable performs longest-prefix-match lookup using a
// path-compressed binary trie (a PATRICIA tree, as in BSD's radix
// routing table): a node stands for one prefix, routed or a pure
// branch point, and skips straight to the bit where its subtrees
// differ, so a lookup visits one node per stored prefix on the path
// rather than one per address bit. Tests verify it against a
// linear-scan reference.
type RoutingTable struct {
	root *trieNode
	n    int
}

// trieNode is the prefix whose high bits are the 1 bits of mask, with
// key holding those bits and the rest zero. Its children share its
// prefix and differ from each other at the bit key>>shift&1 selects,
// the first bit past the prefix; a /32 node has no children.
type trieNode struct {
	key, mask uint32
	shift     uint8
	route     *Route // set if a route has this exact prefix
	child     [2]*trieNode
}

// newTrieNode returns the node of key's high length bits.
func newTrieNode(key uint32, length int, route *Route) *trieNode {
	return &trieNode{key: key, mask: maskBits(length), shift: uint8(31-length) & 31, route: route}
}

// length returns n's prefix length.
func (n *trieNode) length() int { return bits.OnesCount32(n.mask) }

// next returns the child of n on key's side.
func (n *trieNode) next(key uint32) **trieNode { return &n.child[key>>n.shift&1] }

// NewRoutingTable returns an empty table.
func NewRoutingTable() *RoutingTable {
	return &RoutingTable{root: newTrieNode(0, 0, nil)}
}

// ErrBadPrefix is returned for prefix lengths outside [0, 32].
var ErrBadPrefix = errors.New("netstack: prefix length outside [0,32]")

// ErrNoRoute is returned by Lookup when no prefix matches.
var ErrNoRoute = errors.New("netstack: no route to host")

// Insert adds a route, replacing any existing route with the same
// prefix and length.
func (t *RoutingTable) Insert(r Route) error {
	if r.Bits < 0 || r.Bits > 32 {
		return ErrBadPrefix
	}
	key := r.Prefix.Uint32() & maskBits(r.Bits)
	stored := r
	stored.Prefix = AddrFromUint32(key)
	// The root is the /0 node, a prefix of every key.
	link := &t.root
	for {
		n := *link
		if n == nil {
			*link = newTrieNode(key, r.Bits, &stored)
			t.n++
			return nil
		}
		nLen := n.length()
		common := min(r.Bits, nLen, bits.LeadingZeros32(key^n.key))
		switch {
		case common == nLen && common == r.Bits:
			// n is the route's own prefix.
			if n.route == nil {
				t.n++
			}
			n.route = &stored
			return nil
		case common == nLen:
			// n is a proper prefix of the route: descend.
			link = n.next(key)
			continue
		}
		// The route and n part at bit common: the route's node, or a
		// branch point if the route is not itself that prefix, takes
		// n's place with n below it.
		up := newTrieNode(key&maskBits(common), common, nil)
		*up.next(n.key) = n
		if common == r.Bits {
			up.route = &stored
		} else {
			*up.next(key) = newTrieNode(key, r.Bits, &stored)
		}
		*link = up
		t.n++
		return nil
	}
}

// Lookup returns the longest-prefix-match route for dst.
func (t *RoutingTable) Lookup(dst Addr) (Route, error) {
	key := dst.Uint32()
	var best *Route
	for n := t.root; n != nil && (key^n.key)&n.mask == 0; n = *n.next(key) {
		if n.route != nil {
			best = n.route
		}
	}
	if best == nil {
		return Route{}, ErrNoRoute
	}
	return *best, nil
}

// Len returns the number of routes.
func (t *RoutingTable) Len() int { return t.n }

func maskBits(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// MatchPrefix reports whether dst falls within prefix/bits; exported for
// the linear-scan reference used in tests.
func MatchPrefix(prefix Addr, bits int, dst Addr) bool {
	m := maskBits(bits)
	return prefix.Uint32()&m == dst.Uint32()&m
}
