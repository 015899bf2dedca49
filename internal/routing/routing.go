// Package routing builds the data-collection trees the paper assumes
// (§3.A): when a mobile user initiates a collection, a tree rooted at its
// sink spans the network and every intermediate node relays the data of its
// whole subtree. The traffic flux at a node is therefore proportional to its
// subtree size.
//
// Trees are shortest-path collection trees: each node picks as parent its
// geometrically nearest neighbor one hop closer to the sink (ties toward
// the lower index), so construction is fully deterministic. SubtreeSize is
// accumulated bottom-up in one pass; the traffic layer scales it by each
// user's traffic stretch. The traffic layer (internal/traffic) caches one tree per
// sink node, and the observability layer counts those builds and cache hits
// (traffic.tree.builds / traffic.tree.hits).
package routing

import (
	"fmt"
	"sort"

	"fluxtrack/internal/network"
)

// Tree is a data-collection tree rooted at a sink node.
type Tree struct {
	Root   int   // index of the sink node
	Parent []int // Parent[i] is the tree parent of node i, -1 for root/unreached
	Hops   []int // Hops[i] is the hop distance from the root, -1 if unreached
	// SubtreeSize[i] counts the nodes in the subtree rooted at i (including
	// i itself); 0 for unreached nodes. With unit data generation per node,
	// the traffic flux relayed through node i is exactly SubtreeSize[i].
	SubtreeSize []int
}

// Build constructs a shortest-path collection tree rooted at root over the
// network. Among the neighbors one hop closer to the root, each node picks
// the geometrically nearest one as its parent (ties break toward the lower
// index), mirroring the greedy parent selection of practical collection
// protocols and keeping the construction deterministic.
func Build(n *network.Network, root int) (*Tree, error) {
	return BuildRandomized(n, root, 0, 0)
}

// BuildRandomized constructs a collection tree like Build, but each node,
// with probability jitter, picks its parent uniformly among all neighbors
// one hop closer to the root instead of the geometrically nearest one. This
// is the route-randomization countermeasure of the paper's §6 future work:
// the tree stays shortest-path (hop counts are unchanged, so latency is
// preserved), but subtree sizes — and with them the flux fingerprint the
// adversary's model is calibrated against — deviate from the nearest-parent
// shape the attacker assumes.
//
// Every choice is a pure hash of (seed, root, node), never a shared stream,
// so a given (network, root, jitter, seed) always yields the same tree
// regardless of build order or worker count. jitter <= 0 (or NaN) is Build:
// no draw is made and every node keeps its nearest parent; jitter >= 1
// randomizes every parent choice.
func BuildRandomized(n *network.Network, root int, jitter float64, seed uint64) (*Tree, error) {
	if root < 0 || root >= n.Len() {
		return nil, fmt.Errorf("routing: root %d out of range [0, %d)", root, n.Len())
	}
	hops := n.HopsFrom(root)
	parent := make([]int, n.Len())
	for i := range parent {
		parent[i] = -1
	}
	var closer []int
	for i := 0; i < n.Len(); i++ {
		if i == root || hops[i] < 0 {
			continue
		}
		closer = closer[:0]
		best := -1
		var bestDist float64
		for _, j := range n.Neighbors(i) {
			if hops[j] != hops[i]-1 {
				continue
			}
			if jitter > 0 {
				closer = append(closer, int(j))
			}
			d := n.Pos(i).Dist(n.Pos(int(j)))
			if best < 0 || d < bestDist || (d == bestDist && int(j) < best) {
				best, bestDist = int(j), d
			}
		}
		if len(closer) > 1 && routeDraw(seed, root, i, 0) < jitter {
			sort.Ints(closer)
			best = closer[int(routeDraw(seed, root, i, 1)*float64(len(closer)))]
		}
		parent[i] = best
	}
	t := &Tree{Root: root, Parent: parent, Hops: hops}
	t.computeSubtreeSizes()
	return t, nil
}

// routeMix is the splitmix64 finalizer used for the randomized parent
// choices (the same hash discipline as internal/fault's deterministic
// draws: position-keyed, stream-free).
func routeMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// routeDraw returns a uniform [0, 1) draw keyed purely by
// (seed, root, node, salt).
func routeDraw(seed uint64, root, node, salt int) float64 {
	z := routeMix(seed ^ routeMix(uint64(root)+0x51ed27) ^ routeMix(uint64(node)<<8|uint64(salt)))
	return float64(z>>11) / (1 << 53)
}

// computeSubtreeSizes accumulates subtree sizes leaf-to-root by processing
// nodes in decreasing hop order.
func (t *Tree) computeSubtreeSizes() {
	n := len(t.Parent)
	t.SubtreeSize = make([]int, n)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if t.Hops[i] >= 0 {
			order = append(order, i)
			t.SubtreeSize[i] = 1
		}
	}
	sort.Slice(order, func(a, b int) bool { return t.Hops[order[a]] > t.Hops[order[b]] })
	for _, i := range order {
		if p := t.Parent[i]; p >= 0 {
			t.SubtreeSize[p] += t.SubtreeSize[i]
		}
	}
}
