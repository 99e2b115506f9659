package graph

// ConnectedComponents labels every vertex with a component id in [0, count)
// and returns the labels and the component count. Isolated vertices form
// singleton components.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []Vertex
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue = append(queue[:0], Vertex(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}
