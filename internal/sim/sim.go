// Package sim is a packet-level discrete-event simulator for the data
// collections the paper assumes (§3.A). Where internal/traffic computes the
// fluid per-node flux (stretch × subtree size), this package simulates the
// individual packet transmissions of each collection wave and lets a
// passive sniffer count the packets it physically overhears inside an
// observation window ΔT — the measurement process of the real attack.
//
// A collection wave flows leaf-to-root: nodes at the deepest hop ring
// transmit first, each ring's transmissions spread uniformly over one
// hop-latency slot with per-packet jitter. A node's packet count is
// ceil(relayed data units / packet capacity), so the fluid flux is
// recovered in expectation and the rounding, truncated-window, and
// neighborhood-aggregation effects of real sniffing all emerge naturally.
package sim

import (
	"fmt"
	"sort"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/network"
	"fluxtrack/internal/rng"
	"fluxtrack/internal/routing"
)

// Config configures a Simulator.
type Config struct {
	Net *network.Network
	// PacketCapacity is the data units one packet carries (default 1).
	PacketCapacity float64
	// HopLatency is the time one hop ring needs to drain its packets
	// (default 0.05 time units); a wave over H hops lasts H*HopLatency.
	HopLatency float64
	// Aggregated switches to TAG-style in-network aggregation: every node
	// transmits exactly one (aggregate) packet per collection regardless
	// of its subtree, flattening the flux fingerprint. Exists for the
	// aggregation-defense experiment.
	Aggregated bool
}

// Packet is one recorded transmission.
type Packet struct {
	Time float64 // transmission time
	Node int32   // transmitting node
}

// Simulator schedules collection waves and records every transmission.
type Simulator struct {
	cfg   Config
	trees map[int]*routing.Tree
	// packets holds all recorded transmissions sorted by time once
	// finalized; appends mark the log dirty.
	packets []Packet
	sorted  bool
}

// New returns a Simulator over the network.
func New(cfg Config) (*Simulator, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: nil network")
	}
	if cfg.PacketCapacity <= 0 {
		cfg.PacketCapacity = 1
	}
	if cfg.HopLatency <= 0 {
		cfg.HopLatency = 0.05
	}
	return &Simulator{cfg: cfg, trees: make(map[int]*routing.Tree)}, nil
}

// Collect schedules one data collection: a user at pos with the given
// traffic stretch initiates a wave at time t. Every transmission of the
// wave is recorded.
func (s *Simulator) Collect(pos geom.Point, stretch, t float64, src *rng.Source) error {
	if !s.cfg.Net.Field().Contains(pos) {
		return fmt.Errorf("sim: collection origin %v outside the field", pos)
	}
	if stretch <= 0 {
		return fmt.Errorf("sim: stretch must be positive, got %v", stretch)
	}
	sink := s.cfg.Net.Nearest(pos)
	tree, ok := s.trees[sink]
	if !ok {
		var err error
		tree, err = routing.Build(s.cfg.Net, sink)
		if err != nil {
			return fmt.Errorf("sim: tree: %w", err)
		}
		s.trees[sink] = tree
	}

	maxHop := 0
	for _, h := range tree.Hops {
		if h > maxHop {
			maxHop = h
		}
	}
	for i, h := range tree.Hops {
		if h < 0 {
			continue // unreachable node: no participation
		}
		n := s.packetCount(tree.SubtreeSize[i], stretch)
		// Ring h transmits in slot (maxHop - h): leaves first, sink's ring
		// last. Packets spread uniformly inside the slot.
		slotStart := t + float64(maxHop-h)*s.cfg.HopLatency
		for p := 0; p < n; p++ {
			s.packets = append(s.packets, Packet{
				Time: slotStart + src.Uniform(0, s.cfg.HopLatency),
				Node: int32(i),
			})
		}
	}
	s.sorted = false
	return nil
}

// packetCount returns how many packets a node with the given subtree size
// transmits for one collection.
func (s *Simulator) packetCount(subtree int, stretch float64) int {
	if subtree <= 0 {
		return 0
	}
	if s.cfg.Aggregated {
		return 1 // TAG-style: one aggregate packet regardless of subtree
	}
	units := stretch * float64(subtree)
	n := int(units / s.cfg.PacketCapacity)
	if float64(n)*s.cfg.PacketCapacity < units {
		n++
	}
	return n
}

// WaveDuration returns how long one full collection wave lasts on this
// network (worst case over cached trees; at least one Collect must have
// happened).
func (s *Simulator) WaveDuration() float64 {
	maxHop := 0
	for _, tree := range s.trees {
		for _, h := range tree.Hops {
			if h > maxHop {
				maxHop = h
			}
		}
	}
	return float64(maxHop+1) * s.cfg.HopLatency
}

func (s *Simulator) finalize() {
	if s.sorted {
		return
	}
	sort.Slice(s.packets, func(i, j int) bool { return s.packets[i].Time < s.packets[j].Time })
	s.sorted = true
}

// NodeCounts returns the per-node transmission counts in [from, to) as a
// flux-style vector.
func (s *Simulator) NodeCounts(from, to float64) []float64 {
	s.finalize()
	out := make([]float64, s.cfg.Net.Len())
	for _, p := range s.packets {
		if p.Time >= to {
			break
		}
		if p.Time >= from {
			out[p.Node]++
		}
	}
	return out
}

// Sniff returns, for each sniffer position, the number of packets overheard
// in [from, to): every transmission by a node within radio range of the
// sniffer position counts. This is the physically-grounded measurement of
// the attack — neighborhood aggregation is not a modeling choice here but a
// consequence of the shared wireless medium.
func (s *Simulator) Sniff(positions []geom.Point, from, to float64) []float64 {
	s.finalize()
	net := s.cfg.Net
	r2 := net.Radius() * net.Radius()

	// Precompute, per sniffer, the set of audible nodes.
	audible := make([][]int32, len(positions))
	for k, pos := range positions {
		for i := 0; i < net.Len(); i++ {
			if pos.Dist2(net.Pos(i)) <= r2 {
				audible[k] = append(audible[k], int32(i))
			}
		}
	}
	counts := s.NodeCounts(from, to)
	out := make([]float64, len(positions))
	for k := range positions {
		var sum float64
		for _, i := range audible[k] {
			sum += counts[i]
		}
		out[k] = sum
	}
	return out
}
