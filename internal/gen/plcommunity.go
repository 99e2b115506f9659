package gen

import (
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// PowerLawCommunityConfig parameterises the hybrid generator used for the
// social-network analogues (Wiki-Vote, Enron, Slashdot, Epinions): degrees
// follow a power law (as in Chung-Lu) AND edges concentrate inside latent
// communities, matching the combination of heavy-tailed degrees and high
// local clustering that real social graphs exhibit. A pure Chung-Lu graph
// has no community structure, which would understate what locality-aware
// partitioners (TLP, METIS) can exploit.
type PowerLawCommunityConfig struct {
	// Vertices is the vertex count n.
	Vertices int
	// TargetEdges is the desired edge count.
	TargetEdges int
	// Exponent is the power-law degree exponent gamma.
	Exponent float64
	// Communities is the number of latent communities; zero picks
	// max(16, n/150).
	Communities int
	// IntraFraction is the fraction of edges drawn inside a community
	// (default 0.55).
	IntraFraction float64
}

// PowerLawCommunities generates the hybrid graph: both endpoint choices are
// degree-weighted (Chung-Lu style), but IntraFraction of the edges pick both
// endpoints from one community.
func PowerLawCommunities(cfg PowerLawCommunityConfig, r *rng.RNG) *graph.Graph {
	n := cfg.Vertices
	acc := newEdgeAccum(maxInt(n, 0), cfg.TargetEdges)
	if n < 2 || cfg.TargetEdges <= 0 {
		return acc.build()
	}
	comms := cfg.Communities
	if comms <= 0 {
		comms = maxInt(16, n/150)
	}
	if comms > n {
		comms = n
	}
	intraFrac := cfg.IntraFraction
	if intraFrac <= 0 {
		intraFrac = 0.55
	}
	w := powerLawWeights(n, cfg.TargetEdges, cfg.Exponent, 0)
	// Random community assignment; hubs scatter across communities as in
	// real networks (each forum/board has its own heavy posters).
	commOf := make([]int32, n)
	perm := r.Perm(n)
	for i, v := range perm {
		commOf[v] = int32(i % comms)
	}
	members := make([][]int32, comms)
	for v := 0; v < n; v++ {
		members[commOf[v]] = append(members[commOf[v]], int32(v))
	}
	// Cumulative weights for global and per-community sampling.
	globalCum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += w[i]
		globalCum[i] = total
	}
	commPick := make([]*cumIndex, comms)
	commTotal := make([]float64, comms)
	commPairW := make([]float64, comms) // ~ (sum w)^2, community mass
	pairTotal := 0.0
	for c := 0; c < comms; c++ {
		cum := make([]float64, len(members[c]))
		t := 0.0
		for i, v := range members[c] {
			t += w[v]
			cum[i] = t
		}
		commPick[c] = newCumIndex(cum)
		commTotal[c] = t
		commPairW[c] = t * t
		pairTotal += commPairW[c]
	}
	pairCum := make([]float64, comms)
	run := 0.0
	for c := 0; c < comms; c++ {
		run += commPairW[c]
		pairCum[c] = run
	}
	globalPick, pairPick := newCumIndex(globalCum), newCumIndex(pairCum)
	sampleGlobal := func() int32 {
		return int32(globalPick.search(r.Float64() * total))
	}
	sampleIn := func(c int) int32 {
		return members[c][commPick[c].search(r.Float64()*commTotal[c])]
	}
	intra := int(float64(cfg.TargetEdges) * clamp01(intraFrac))
	guard := 0
	maxGuard := 60*cfg.TargetEdges + 1000
	for acc.count() < intra && guard < maxGuard {
		guard++
		c := pairPick.search(r.Float64() * pairTotal)
		if len(members[c]) < 2 {
			continue
		}
		acc.add(graph.Vertex(sampleIn(c)), graph.Vertex(sampleIn(c)))
	}
	for acc.count() < cfg.TargetEdges && guard < maxGuard {
		guard++
		acc.add(graph.Vertex(sampleGlobal()), graph.Vertex(sampleGlobal()))
	}
	return acc.build()
}
