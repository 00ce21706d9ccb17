// Package core implements the paper's primary contribution: push-based
// gossip-target selection policies for message dissemination.
//
// The generic dissemination algorithm (paper, Figure 1a) is the same for
// every protocol: a node that generates a message or receives it for the
// first time forwards it to the targets chosen by selectGossipTargets; later
// duplicates are ignored, and a message is never forwarded back to the node
// it was just received from. The protocols differ only in target selection:
//
//   - Flood (Figure 1b): all outgoing links — deterministic dissemination.
//   - RandCast (Figure 2): F uniform-random view members — the purely
//     probabilistic model of Kermarrec et al.
//   - RingCast (Figure 5): the hybrid protocol — both ring neighbours
//     (d-links) always, plus random links (r-links) up to the fanout F.
//
// Selectors are pure: they depend only on the node's links, the sender, the
// fanout, and the supplied randomness, so the same implementations drive the
// hop-synchronous simulator and the live runtime.
//
//ringcast:deterministic
package core

import (
	"fmt"
	"math/rand"

	"ringcast/internal/ident"
)

// Links is a node's outgoing neighbourhood at dissemination time.
type Links struct {
	// R holds the random links (the node's peer-sampling view).
	R []ident.ID
	// D holds the deterministic links (ring neighbours; 2k entries when k
	// rings are maintained). Empty for purely probabilistic protocols.
	D []ident.ID
}

// Selector chooses gossip targets for a node presented with a fresh message.
// The live node selects over IDs (Select); the simulators select over
// resolved overlay positions (the embedded PosSelector), so every selector
// implements both, with identical randomness consumption.
type Selector interface {
	PosSelector
	// Name identifies the protocol in tables and logs.
	Name() string
	// Select returns the targets to forward to. from is the node the message
	// was just received from (ident.Nil when the node is the origin); it must
	// never be among the returned targets. fanout is the system-wide F.
	Select(links Links, from ident.ID, fanout int, rng *rand.Rand) []ident.ID
}

// RandCast is the purely probabilistic dissemination protocol: forward to
// up to F random peer-sampling neighbours, excluding the sender.
type RandCast struct{}

// Name implements Selector.
func (RandCast) Name() string { return "RandCast" }

// Select implements Selector (paper, Figure 2).
func (RandCast) Select(links Links, from ident.ID, fanout int, rng *rand.Rand) []ident.ID {
	return sampleExcluding(links.R, fanout, rng, from, nil)
}

// RingCast is the hybrid dissemination protocol: always forward across all
// d-links (except back to the sender), then fill up to the fanout with
// random r-links.
type RingCast struct{}

// Name implements Selector.
func (RingCast) Name() string { return "RingCast" }

// Select implements Selector (paper, Figure 5). Note that the d-links are
// not capped by the fanout: with F=1 a node still forwards to both ring
// neighbours, which is what guarantees complete dissemination for any F in
// fail-free networks.
func (RingCast) Select(links Links, from ident.ID, fanout int, rng *rand.Rand) []ident.ID {
	targets := make([]ident.ID, 0, fanout+len(links.D))
	seen := make(map[ident.ID]struct{}, fanout+len(links.D))
	for _, d := range links.D {
		if d == from || d.IsNil() {
			continue
		}
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		targets = append(targets, d)
	}
	if remaining := fanout - len(targets); remaining > 0 {
		targets = append(targets, sampleExcluding(links.R, remaining, rng, from, seen)...)
	}
	return targets
}

// Flood is deterministic dissemination (paper, Figure 1b): forward across
// every outgoing link. The fanout parameter is ignored.
type Flood struct{}

// Name implements Selector.
func (Flood) Name() string { return "Flood" }

// Select implements Selector.
func (Flood) Select(links Links, from ident.ID, _ int, _ *rand.Rand) []ident.ID {
	targets := make([]ident.ID, 0, len(links.R)+len(links.D))
	seen := make(map[ident.ID]struct{}, len(links.R)+len(links.D))
	for _, set := range [2][]ident.ID{links.D, links.R} {
		for _, id := range set {
			if id == from || id.IsNil() {
				continue
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			targets = append(targets, id)
		}
	}
	return targets
}

// DFlood floods only the deterministic links, reproducing the Section 3
// baselines (flooding over ring/tree/star/clique/Harary overlays).
type DFlood struct{}

// Name implements Selector.
func (DFlood) Name() string { return "DFlood" }

// Select implements Selector.
func (DFlood) Select(links Links, from ident.ID, _ int, _ *rand.Rand) []ident.ID {
	targets := make([]ident.ID, 0, len(links.D))
	seen := make(map[ident.ID]struct{}, len(links.D))
	for _, id := range links.D {
		if id == from || id.IsNil() {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		targets = append(targets, id)
	}
	return targets
}

// ByName returns the selector registered under name. Recognized names are
// "randcast", "ringcast", "flood" and "dflood" (case-sensitive, lower case).
func ByName(name string) (Selector, error) {
	switch name {
	case "randcast":
		return RandCast{}, nil
	case "ringcast":
		return RingCast{}, nil
	case "flood":
		return Flood{}, nil
	case "dflood":
		return DFlood{}, nil
	default:
		return nil, fmt.Errorf("core: unknown protocol %q", name)
	}
}

// PosLinks is a node's outgoing neighbourhood with every ID resolved to a
// dense overlay position (see dissem.Overlay). Positions >= 0 index the
// overlay's node table; NilPos marks links whose ID was nil; values <= -2 are
// per-ID placeholders for links pointing at IDs absent from the overlay —
// each distinct unknown ID resolves to a distinct placeholder, so duplicate
// suppression over positions behaves exactly as it does over IDs. Selecting
// over positions replaces the per-target map lookup of the ID path with
// array indexing on the dissemination hot path.
type PosLinks struct {
	// R holds the random links, aligned with the Links.R they were resolved
	// from.
	R []int32
	// D holds the deterministic links, aligned with Links.D.
	D []int32
}

// NilPos is the resolved position of a nil ID. It is skipped during
// selection, exactly as nil IDs are on the ID path.
const NilPos int32 = -1

// PosScratch carries reusable buffers for SelectPos so that repeated
// selections allocate nothing. The zero value is ready to use; a scratch
// must not be shared between concurrent selections.
type PosScratch struct {
	cand []int32
}

// PosSelector chooses targets directly over resolved positions; every
// Selector embeds it. SelectPos appends the chosen positions to dst and
// returns the extended slice (it never inspects dst below its initial
// length). Implementations MUST consume exactly the same randomness as
// Select does on the equivalent ID links, so that the position path and the
// ID path produce identical disseminations.
type PosSelector interface {
	SelectPos(dst []int32, s *PosScratch, links PosLinks, from int32, fanout int, rng *rand.Rand) []int32
}

var (
	_ Selector = RandCast{}
	_ Selector = RingCast{}
	_ Selector = Flood{}
	_ Selector = DFlood{}
)

// SelectPos implements PosSelector, mirroring Select.
//
//ringcast:hotpath
func (RandCast) SelectPos(dst []int32, s *PosScratch, links PosLinks, from int32, fanout int, rng *rand.Rand) []int32 {
	return samplePosExcluding(dst, s, links.R, fanout, rng, from, nil)
}

// SelectPos implements PosSelector, mirroring Select.
//
//ringcast:hotpath
func (RingCast) SelectPos(dst []int32, s *PosScratch, links PosLinks, from int32, fanout int, rng *rand.Rand) []int32 {
	base := len(dst)
	for _, d := range links.D {
		if d == from || d == NilPos || containsPos(dst[base:], d) {
			continue
		}
		dst = append(dst, d)
	}
	if remaining := fanout - (len(dst) - base); remaining > 0 {
		dst = samplePosExcluding(dst, s, links.R, remaining, rng, from, dst[base:])
	}
	return dst
}

// SelectPos implements PosSelector, mirroring Select.
//
//ringcast:hotpath
func (Flood) SelectPos(dst []int32, _ *PosScratch, links PosLinks, from int32, _ int, _ *rand.Rand) []int32 {
	base := len(dst)
	for _, set := range [2][]int32{links.D, links.R} {
		for _, p := range set {
			if p == from || p == NilPos || containsPos(dst[base:], p) {
				continue
			}
			dst = append(dst, p)
		}
	}
	return dst
}

// SelectPos implements PosSelector, mirroring Select.
//
//ringcast:hotpath
func (DFlood) SelectPos(dst []int32, _ *PosScratch, links PosLinks, from int32, _ int, _ *rand.Rand) []int32 {
	base := len(dst)
	for _, p := range links.D {
		if p == from || p == NilPos || containsPos(dst[base:], p) {
			continue
		}
		dst = append(dst, p)
	}
	return dst
}

// samplePosExcluding is sampleExcluding over positions: up to n distinct
// positions drawn uniformly without replacement from pool, excluding from,
// NilPos, and anything in skip, appended to dst. The candidate pool is built
// in the same order and the same number of rng draws are made as on the ID
// path, so both paths pick the same targets. Linear-scan dedup replaces the
// ID path's maps: link sets are small (tens of entries), where scanning
// beats hashing and allocates nothing.
//
//ringcast:hotpath
func samplePosExcluding(dst []int32, s *PosScratch, pool []int32, n int, rng *rand.Rand, from int32, skip []int32) []int32 {
	if n <= 0 || len(pool) == 0 {
		return dst
	}
	cand := s.cand[:0]
	for _, p := range pool {
		if p == from || p == NilPos || containsPos(cand, p) || containsPos(skip, p) {
			continue
		}
		cand = append(cand, p)
	}
	s.cand = cand
	if n > len(cand) {
		n = len(cand)
	}
	// Partial Fisher-Yates: shuffle only the prefix we take.
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return append(dst, cand[:n]...)
}

//
//ringcast:hotpath
func containsPos(s []int32, p int32) bool {
	for _, q := range s {
		if q == p {
			return true
		}
	}
	return false
}

// sampleExcluding returns up to n distinct IDs drawn uniformly without
// replacement from pool, excluding `from`, ident.Nil, and anything in skip.
func sampleExcluding(pool []ident.ID, n int, rng *rand.Rand, from ident.ID, skip map[ident.ID]struct{}) []ident.ID {
	if n <= 0 || len(pool) == 0 {
		return nil
	}
	candidates := make([]ident.ID, 0, len(pool))
	uniq := make(map[ident.ID]struct{}, len(pool))
	for _, id := range pool {
		if id == from || id.IsNil() {
			continue
		}
		if _, dup := uniq[id]; dup {
			continue
		}
		if skip != nil {
			if _, dup := skip[id]; dup {
				continue
			}
		}
		uniq[id] = struct{}{}
		candidates = append(candidates, id)
	}
	if n > len(candidates) {
		n = len(candidates)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return candidates[:n:n]
}
