package gen

import (
	"math"
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// CommunityConfig parameterises a planted-community graph: vertices are
// divided into communities and edges fall inside a community with much
// higher probability than across. Models the email-Eu-core dataset (EU
// research-institution departments).
type CommunityConfig struct {
	// Vertices is the vertex count n.
	Vertices int
	// Communities is the number of planted communities; sizes are drawn
	// from a skewed distribution (real departments vary widely).
	Communities int
	// TargetEdges is the desired edge count (realised count is random
	// around it; combine with AdjustEdgeCount for exactness).
	TargetEdges int
	// IntraFraction is the fraction of edges that should be
	// intra-community (e.g. 0.7-0.9 for organisational networks).
	IntraFraction float64
}

// PlantedCommunities generates a graph with dense communities and a sparse
// random background between them.
func PlantedCommunities(cfg CommunityConfig, r *rng.RNG) *graph.Graph {
	n := cfg.Vertices
	acc := newEdgeAccum(maxInt(n, 0), cfg.TargetEdges)
	if n < 2 || cfg.TargetEdges <= 0 {
		return acc.build()
	}
	c := cfg.Communities
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	// Mildly skewed community sizes: size_i proportional to (i+1)^-0.5.
	// A steeper skew would starve small communities of vertex pairs and
	// make high intra-edge targets infeasible on dense graphs like G1.
	sizes := make([]int, c)
	weights := make([]float64, c)
	wsum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.5)
		wsum += weights[i]
	}
	assigned := 0
	for i := range sizes {
		sizes[i] = maxInt(1, int(float64(n)*weights[i]/wsum))
		assigned += sizes[i]
	}
	// Fix rounding drift on the largest community.
	sizes[0] += n - assigned
	if sizes[0] < 1 {
		sizes[0] = 1
	}
	// members[i] is the contiguous vertex range of community i.
	start := make([]int, c+1)
	for i := 0; i < c; i++ {
		start[i+1] = start[i] + sizes[i]
	}
	intra := int(float64(cfg.TargetEdges) * clamp01(cfg.IntraFraction))
	inter := cfg.TargetEdges - intra
	// Intra edges: pick a community proportional to size^2 (dense blocks
	// scale with possible pairs), then a uniform pair inside it.
	cum := make([]float64, c)
	total := 0.0
	for i, s := range sizes {
		pairs := float64(s) * float64(s-1) / 2
		total += pairs
		cum[i] = total
	}
	pick := newCumIndex(cum)
	added := 0
	for attempts := 0; added < intra && attempts < 20*intra+100; attempts++ {
		ci := pick.search(r.Float64() * total)
		s := sizes[ci]
		if s < 2 {
			continue
		}
		u := start[ci] + r.Intn(s)
		v := start[ci] + r.Intn(s)
		if acc.add(graph.Vertex(u), graph.Vertex(v)) {
			added++
		}
	}
	// Inter edges: uniform random cross-community pairs.
	added = 0
	for attempts := 0; added < inter && attempts < 20*inter+100; attempts++ {
		u := r.Intn(n)
		v := r.Intn(n)
		if communityOf(start, u) == communityOf(start, v) {
			continue
		}
		if acc.add(graph.Vertex(u), graph.Vertex(v)) {
			added++
		}
	}
	return acc.build()
}

// searchCum returns the first index i with cum[i] >= x, or len(cum)-1 when
// there is none, for a non-decreasing cum.
func searchCum(cum []float64, x float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cumIndex answers searchCum queries over one cumulative-weight array in
// expected O(1) steps. guide[k] is searchCum's answer at the boundary
// k·total/K of K = len(cum) equal buckets of [0, total]. A lookup checks
// that its bucket's two guides lo, hi bracket x (cum[lo-1] < x <= cum[hi]),
// which pins searchCum's answer to [lo, hi], and binary-searches only that
// range; otherwise, say when float rounding put x in a neighbouring bucket,
// it falls back to searchCum. Either way search(x) == searchCum(cum, x).
type cumIndex struct {
	cum   []float64
	guide []int32 // K+1 entries; nil when total is not positive
	scale float64 // K / total
}

func newCumIndex(cum []float64) *cumIndex {
	ix := &cumIndex{cum: cum}
	k := len(cum)
	if k == 0 || !(cum[k-1] > 0) {
		return ix
	}
	total := cum[k-1]
	ix.scale = float64(k) / total
	ix.guide = make([]int32, k+1)
	i := 0
	for b := range ix.guide {
		x := float64(b) * total / float64(k)
		for i < k-1 && cum[i] < x {
			i++
		}
		ix.guide[b] = int32(i)
	}
	return ix
}

func (ix *cumIndex) search(x float64) int {
	if ix.guide == nil {
		return searchCum(ix.cum, x)
	}
	b := min(max(int(x*ix.scale), 0), len(ix.cum)-1)
	lo, hi := int(ix.guide[b]), int(ix.guide[b+1])
	if (lo > 0 && !(ix.cum[lo-1] < x)) || !(x <= ix.cum[hi]) {
		return searchCum(ix.cum, x)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func communityOf(start []int, v int) int {
	lo, hi := 0, len(start)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if start[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// CollabConfig parameterises a collaboration-network generator: "papers" are
// cliques over author sets, and prolific authors appear on many papers.
// Models the CA-HepPh co-authorship dataset, whose structure is a union of
// overlapping cliques.
type CollabConfig struct {
	// Authors is the vertex count.
	Authors int
	// TargetEdges is the desired edge count.
	TargetEdges int
	// MeanAuthorsPerPaper controls clique sizes (geometric around the
	// mean, min 2). Physics co-authorship papers average 3-6 authors with
	// occasional huge collaborations.
	MeanAuthorsPerPaper float64
	// ProlificExponent skews author selection (power-law author
	// productivity); ~0.75 matches arXiv-style catalogues.
	ProlificExponent float64
}

// Collaboration generates a clique-overlap co-authorship graph.
func Collaboration(cfg CollabConfig, r *rng.RNG) *graph.Graph {
	n := cfg.Authors
	acc := newEdgeAccum(maxInt(n, 0), cfg.TargetEdges)
	if n < 2 || cfg.TargetEdges <= 0 {
		return acc.build()
	}
	mean := cfg.MeanAuthorsPerPaper
	if mean < 2 {
		mean = 4
	}
	// Author sampling via power-law weights over a shuffled identity so
	// that prolific authors are spread across the id space.
	perm := r.Perm(n)
	alpha := cfg.ProlificExponent
	if alpha <= 0 {
		alpha = 0.75
	}
	// Pre-compute cumulative weights for guide-table sampling.
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -alpha)
		cum[i] = total
	}
	pick := newCumIndex(cum)
	sampleAuthor := func() graph.Vertex {
		return graph.Vertex(perm[pick.search(r.Float64()*total)])
	}
	guard := 0
	for acc.count() < cfg.TargetEdges && guard < 50*cfg.TargetEdges+1000 {
		guard++
		// Paper size: 2 + geometric around the mean.
		k := 2 + r.Geometric(1/(mean-1))
		if k > 40 {
			k = 40 // cap mega-collaborations
		}
		authors := make(map[graph.Vertex]struct{}, k)
		for len(authors) < k {
			authors[sampleAuthor()] = struct{}{}
			guard++
			if guard > 50*cfg.TargetEdges+1000 {
				break
			}
		}
		// The pair set is order-independent (the accumulator dedupes and
		// the builder sorts), but sort anyway so determinism is structural
		// rather than argued.
		list := make([]graph.Vertex, 0, len(authors))
		for a := range authors {
			list = append(list, a) //lint:ignore GL001 sorted on the next line
		}
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				acc.add(list[i], list[j])
			}
		}
	}
	return acc.build()
}

// GenealogyConfig parameterises a genealogy-forest generator standing in for
// the huapu family-tree dataset: a forest of lineage trees (parent-child
// edges) joined by marriage edges, giving a sparse, tree-like, large-diameter
// graph with average degree near 2·|E|/|V| ≈ 3.3.
type GenealogyConfig struct {
	// People is the vertex count.
	People int
	// TargetEdges is the desired edge count; People-Trees of them are
	// parent links, the rest marriage/cross links.
	TargetEdges int
	// Trees is the number of independent family trees (surname lineages).
	Trees int
	// MaxChildren caps the branching factor.
	MaxChildren int
}

// Genealogy generates the family-forest graph.
func Genealogy(cfg GenealogyConfig, r *rng.RNG) *graph.Graph {
	n := cfg.People
	acc := newEdgeAccum(maxInt(n, 0), cfg.TargetEdges)
	if n < 2 || cfg.TargetEdges <= 0 {
		return acc.build()
	}
	trees := cfg.Trees
	if trees < 1 {
		trees = 1
	}
	if trees > n {
		trees = n
	}
	maxKids := cfg.MaxChildren
	if maxKids < 2 {
		maxKids = 6
	}
	// Assign the first `trees` vertices as roots; everyone else attaches
	// to a parent chosen among recent members of a random tree, which
	// keeps generations shallow-ish but tree-like.
	treeMembers := make([][]graph.Vertex, trees)
	childCount := make([]int, n)
	for t := 0; t < trees; t++ {
		treeMembers[t] = append(treeMembers[t], graph.Vertex(t))
	}
	// A small fraction of people are "patriarchs" — famous ancestors whose
	// registries record very many children/descendant links. Real huapu
	// data has such hubs (the paper's Table VI shows Stage-I degrees of
	// 30-167 on it); without them the forest's degree tail is too light.
	patriarchCap := maxKids * 16
	isPatriarch := func(v int) bool { return uint64(v)%512 == 7 }
	for v := trees; v < n; v++ {
		t := r.Intn(trees)
		members := treeMembers[t]
		// Prefer recent members (younger generations keep growing).
		var parent graph.Vertex
		for tries := 0; ; tries++ {
			var idx int
			if r.Float64() < 0.08 {
				// Occasionally attach to an early ancestor: this is
				// how the patriarch hubs accumulate their fan-out.
				idx = r.Geometric(0.5)
				if idx >= len(members) {
					idx = len(members) - 1
				}
			} else {
				idx = len(members) - 1 - r.Geometric(0.1)
			}
			if idx < 0 {
				idx = r.Intn(len(members))
			}
			parent = members[idx]
			cap := maxKids
			if isPatriarch(int(parent)) {
				cap = patriarchCap
			}
			if childCount[parent] < cap || tries > 4 {
				break
			}
		}
		childCount[parent]++
		acc.add(graph.Vertex(v), parent)
		treeMembers[t] = append(members, graph.Vertex(v))
	}
	// Marriage/spouse/extra-kinship edges. A genealogy corpus is a
	// collection of per-clan registries: the overwhelming majority of
	// recorded links stay inside one registry (spouses are recorded in
	// their husband's register, cousin lines interconnect), and only the
	// occasional link points at a neighbouring clan's register. Uniform
	// cross links would weld the forest into one unstructured blob, which
	// real genealogy networks are not — they are near-disconnected, which
	// is exactly why every partitioner handles them well.
	for attempts := 0; acc.count() < cfg.TargetEdges && attempts < 30*cfg.TargetEdges+100; attempts++ {
		t := r.Intn(trees)
		if r.Float64() < 0.002 {
			// Out-marriage into an adjacent clan.
			off := r.Geometric(0.5) + 1
			if r.Intn(2) == 0 {
				off = -off
			}
			t2 := ((t+off)%trees + trees) % trees
			mu := treeMembers[t]
			mv := treeMembers[t2]
			if len(mu) == 0 || len(mv) == 0 {
				continue
			}
			acc.add(mu[r.Intn(len(mu))], mv[r.Intn(len(mv))])
			continue
		}
		m := treeMembers[t]
		if len(m) < 2 {
			continue
		}
		acc.add(m[r.Intn(len(m))], m[r.Intn(len(m))])
	}
	return acc.build()
}
