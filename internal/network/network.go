// Package network models the sensor network as a unit-disk connectivity
// graph: two nodes communicate when their distance is at most the radio
// range R. It provides the hop-count machinery (BFS) that both the traffic
// simulator and the flux model calibration rely on, plus the neighborhood
// flux smoothing the paper suggests for mitigating routing-tree randomness.
//
// A Network is immutable once built: node positions come from
// internal/deploy, the adjacency lists are constructed once by grid-bucketed
// unit-disk range search, and all queries (Neighbors, HopsFrom, Nearest,
// SmoothOverNeighborhood) read shared state without locking, which is what
// lets the parallel layers above (candidate search, experiment trials)
// share one Network across goroutines. Hop counts are breadth-first-search
// distances, matching the paper's assumption that collection trees are
// shortest-path trees in hops.
package network

import (
	"fmt"
	"math"

	"fluxtrack/internal/geom"
)

// Network is an immutable unit-disk graph over sensor node positions.
type Network struct {
	field  geom.Rect
	radius float64
	pos    []geom.Point
	adj    [][]int32

	// cells buckets node indices on a grid of cell size radius for fast
	// neighbor-candidate lookup during construction and nearest queries.
	cells     map[cellKey][]int32
	avgDegree float64
}

type cellKey struct{ cx, cy int32 }

// New builds the unit-disk graph over the positions with radio range radius.
// Positions must be non-empty and lie inside field.
func New(field geom.Rect, positions []geom.Point, radius float64) (*Network, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("network: no positions")
	}
	if !(radius > 0) || math.IsInf(radius, 1) {
		return nil, fmt.Errorf("network: radius must be finite and positive, got %v", radius)
	}
	for i, p := range positions {
		if !field.Contains(p) {
			return nil, fmt.Errorf("network: node %d at %v is outside field %v", i, p, field)
		}
	}
	n := &Network{
		field:  field,
		radius: radius,
		pos:    append([]geom.Point(nil), positions...),
		cells:  make(map[cellKey][]int32),
	}
	for i, p := range n.pos {
		k := n.cellOf(p)
		n.cells[k] = append(n.cells[k], int32(i))
	}
	n.buildAdjacency()
	return n, nil
}

func (n *Network) cellOf(p geom.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / n.radius)),
		cy: int32(math.Floor(p.Y / n.radius)),
	}
}

func (n *Network) buildAdjacency() {
	n.adj = make([][]int32, len(n.pos))
	r2 := n.radius * n.radius
	var totalEdges int
	for i, p := range n.pos {
		k := n.cellOf(p)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, j := range n.cells[cellKey{k.cx + dx, k.cy + dy}] {
					if int(j) == i {
						continue
					}
					if p.Dist2(n.pos[j]) <= r2 {
						n.adj[i] = append(n.adj[i], j)
					}
				}
			}
		}
		totalEdges += len(n.adj[i])
	}
	n.avgDegree = float64(totalEdges) / float64(len(n.pos))
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.pos) }

// Field returns the deployment field rectangle.
func (n *Network) Field() geom.Rect { return n.field }

// Radius returns the radio range.
func (n *Network) Radius() float64 { return n.radius }

// Pos returns the position of node i.
func (n *Network) Pos(i int) geom.Point { return n.pos[i] }

// Neighbors returns the node indices adjacent to i. The returned slice is
// shared internal state and must not be modified.
func (n *Network) Neighbors(i int) []int32 { return n.adj[i] }

// AvgDegree returns the average node degree of the network. The paper's
// instant-localization setup (900 nodes, 30x30 field, R = 2.4) yields an
// average degree around 18.
func (n *Network) AvgDegree() float64 { return n.avgDegree }

// Nearest returns the index of the node closest to p. Ties break toward the
// lower index, keeping sink attachment deterministic.
func (n *Network) Nearest(p geom.Point) int {
	best, bestD2 := 0, p.Dist2(n.pos[0])
	for i := 1; i < len(n.pos); i++ {
		if d2 := p.Dist2(n.pos[i]); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

// HopsFrom returns the BFS hop distance from source to every node, with -1
// for unreachable nodes. This is the hop metric of the discrete flux model.
func (n *Network) HopsFrom(source int) []int {
	hops := make([]int, len(n.pos))
	for i := range hops {
		hops[i] = -1
	}
	hops[source] = 0
	queue := make([]int32, 0, len(n.pos))
	queue = append(queue, int32(source))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range n.adj[v] {
			if hops[w] < 0 {
				hops[w] = hops[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return hops
}

// RadialHopProgress estimates the average Euclidean distance covered per hop
// as seen from source: the mean of dist(source, i)/hops(i) over nodes at
// least minHop hops away. This is the r parameter of the discrete flux model
// (d ≈ k·r for a k-hop node); it is slightly larger than the average
// parent-link length because multi-hop paths are nearly straight.
func (n *Network) RadialHopProgress(source, minHop int) float64 {
	if minHop < 1 {
		minHop = 1
	}
	hops := n.HopsFrom(source)
	var total float64
	var count int
	for i, h := range hops {
		if h < minHop {
			continue
		}
		total += n.pos[source].Dist(n.pos[i]) / float64(h)
		count++
	}
	if count == 0 {
		return n.radius
	}
	return total / float64(count)
}

// SmoothOverNeighborhood returns, for every node, the average of values over
// the node's closed neighborhood (itself plus adjacent nodes). The paper
// observes that averaging flux within a neighborhood yields a smoother flux
// map and better model accuracy by mitigating routing-tree randomness.
func (n *Network) SmoothOverNeighborhood(values []float64) ([]float64, error) {
	if len(values) != len(n.pos) {
		return nil, fmt.Errorf("network: smoothing needs %d values, got %d", len(n.pos), len(values))
	}
	out := make([]float64, len(values))
	for i := range values {
		sum := values[i]
		for _, j := range n.adj[i] {
			sum += values[j]
		}
		out[i] = sum / float64(1+len(n.adj[i]))
	}
	return out, nil
}
