package dgraph

import (
	"sort"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
)

// DegreeLabels computes, for a 1D block-distributed graph, the new label of
// every local vertex under the global non-decreasing-degree order (ties
// broken by current id), and rewrites the local adjacency lists into new
// labels. It is the distributed counting sort of the paper's §5.3: a vector
// exclusive scan over per-degree histograms plus an all-to-all
// request/response that resolves remote neighbours' labels.
//
// ops, when non-nil, accumulates the number of adjacency-entry operations
// performed (the preprocessing op count reported in the paper's Figure 2).
func DegreeLabels(c *mpi.Comm, in *Dist1D, ops *int64) (labels []int32, newAdj []int32) {
	var dummy int64
	if ops == nil {
		ops = &dummy
	}
	p := c.Size()
	nloc := int(in.VEnd - in.VBeg)

	// Local degrees and maximum.
	var dmaxLoc int64
	deg := make([]int32, nloc)
	c.Compute(func() {
		for lv := 0; lv < nloc; lv++ {
			d := in.Xadj[lv+1] - in.Xadj[lv]
			deg[lv] = int32(d)
			if d > dmaxLoc {
				dmaxLoc = d
			}
			*ops++
		}
	})
	dmax := c.AllreduceInt64(dmaxLoc, mpi.OpMax)

	// Histogram, exscan over ranks, global totals (cost dmax·log p, §5.4).
	hist := make([]int64, dmax+1)
	c.Compute(func() {
		for _, d := range deg {
			hist[d]++
		}
	})
	before := c.ExscanInt64s(hist)
	tot := c.AllreduceInt64s(hist, mpi.OpSum)

	labels = make([]int32, nloc)
	c.Compute(func() {
		degStart := make([]int64, dmax+2)
		for d := int64(0); d <= dmax; d++ {
			degStart[d+1] = degStart[d] + tot[d]
		}
		seen := make([]int64, dmax+1)
		for lv := 0; lv < nloc; lv++ {
			d := deg[lv]
			labels[lv] = int32(degStart[d] + before[d] + seen[d])
			seen[d]++
		}
	})

	// Resolve neighbour labels. One radix ordering of the adjacency visits
	// every distinct neighbour in ascending order: each owner's request
	// list comes out sorted and unique, and owners are found by advancing
	// over BlockRange boundaries instead of a division per entry.
	var ord []int32
	reqs := make([][]int32, p)
	c.Compute(func() {
		ord = graph.Order(in.Adj)
		r, prev := 0, int32(-1)
		_, end := BlockRange(r, in.N, p)
		for _, i := range ord {
			*ops++
			u := in.Adj[i]
			if u == prev {
				continue
			}
			prev = u
			for u >= end {
				r++
				_, end = BlockRange(r, in.N, p)
			}
			reqs[r] = append(reqs[r], u)
		}
	})
	asked := c.AlltoallvInt32(reqs)
	resp := make([][]int32, p)
	c.Compute(func() {
		for r := range asked {
			out := make([]int32, len(asked[r]))
			for i, u := range asked[r] {
				out[i] = labels[u-in.VBeg]
				*ops++
			}
			resp[r] = out
		}
	})
	mpi.RecycleInt32s(asked)
	answers := c.AlltoallvInt32(resp)

	// Rewrite the adjacency by walking the same order again: the answers
	// are aligned with the requests, so the k-th distinct neighbour's label
	// is the k-th answer counted across owners.
	c.Compute(func() {
		newAdj = make([]int32, len(in.Adj))
		r, j, prev := 0, -1, int32(-1)
		for _, i := range ord {
			if u := in.Adj[i]; u != prev {
				prev = u
				j++
				for j == len(answers[r]) {
					r, j = r+1, 0
				}
			}
			newAdj[i] = answers[r][j]
			*ops++
		}
	})
	mpi.RecycleInt32s(answers)
	return labels, newAdj
}

// RelabelByDegree relabels the graph in non-decreasing degree order and
// redistributes it so that rank r owns the contiguous new-label range
// BlockRange(r): after this call, ids themselves encode the degree order
// (u > v implies deg(u) >= deg(v)) and BlockOwner answers ownership queries.
// The 1D baseline algorithms (Havoq-style wedge checking, AOP, Surrogate,
// OPT-PSP) all start from this form.
func RelabelByDegree(c *mpi.Comm, in *Dist1D) *Dist1D {
	labels, newAdj := DegreeLabels(c, in, nil)
	p := c.Size()
	nloc := int(in.VEnd - in.VBeg)

	// Route each vertex (new id, adjacency) to the block owner of its new
	// id, with lists sorted for downstream merge intersections.
	sendbuf := make([][]int32, p)
	c.Compute(func() {
		pairs := make([]int32, 0, 2*len(newAdj))
		for lv := 0; lv < nloc; lv++ {
			for _, u := range newAdj[in.Xadj[lv]:in.Xadj[lv+1]] {
				pairs = append(pairs, int32(lv), u)
			}
		}
		xadj, sorted := graph.RowsFromPairs[int64](int32(nloc), [][]int32{pairs})
		for lv := 0; lv < nloc; lv++ {
			w := labels[lv]
			dst := BlockOwner(w, in.N, p)
			row := sorted[xadj[lv]:xadj[lv+1]]
			buf := sendbuf[dst]
			buf = append(buf, w, int32(len(row)))
			buf = append(buf, row...)
			sendbuf[dst] = buf
		}
	})
	got := c.AlltoallvInt32(sendbuf)

	beg, end := BlockRange(c.Rank(), in.N, p)
	out := &Dist1D{N: in.N, VBeg: beg, VEnd: end}
	c.Compute(func() {
		nout := int(end - beg)
		sizes := make([]int64, nout+1)
		for _, part := range got {
			i := 0
			for i < len(part) {
				lv := part[i] - beg
				d := part[i+1]
				sizes[lv+1] = int64(d)
				i += 2 + int(d)
			}
		}
		xadj := make([]int64, nout+1)
		for v := 0; v < nout; v++ {
			xadj[v+1] = xadj[v] + sizes[v+1]
		}
		adj := make([]int32, xadj[nout])
		for _, part := range got {
			i := 0
			for i < len(part) {
				lv := part[i] - beg
				d := int(part[i+1])
				copy(adj[xadj[lv]:xadj[lv]+int64(d)], part[i+2:i+2+d])
				i += 2 + d
			}
		}
		out.Xadj = xadj
		out.Adj = adj
	})
	mpi.RecycleInt32s(got)
	return out
}

// Above returns the suffix of the (sorted) adjacency of local vertex v with
// ids greater than v — the degree-ordered out-neighbourhood N⁺(v) the 1D
// algorithms orient edges by. The input must come from RelabelByDegree.
func (d *Dist1D) Above(v int32) []int32 {
	row := d.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] > v })
	return row[i:]
}

// Below returns the prefix of the adjacency of local vertex v with ids less
// than v.
func (d *Dist1D) Below(v int32) []int32 {
	row := d.Neighbors(v)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return row[:i]
}
