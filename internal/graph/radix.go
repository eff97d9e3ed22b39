package graph

import (
	"math"
	"math/bits"
)

// Linear-time CSR construction. Every build site of the preprocessing
// pipeline (1D assembly, the degree relabel's request lists, the 2D
// blocks, the row mirror) sorts by an int32 key. RowsFromPairs and Order
// cover them, both least-significant-digit radix sorts: keys are offset
// by their minimum and split into at most two digits of at most 16 bits,
// so a key span below 2^16 takes one counting pass and any int32 span
// two. Neither compares keys, and scratch memory is O(nnz + 2^16).

// radixPlan returns the digit width and the number of counting passes
// needed to sort keys whose offsets from the minimum lie in [0, span].
func radixPlan(span uint32) (width uint, passes int) {
	b := uint(bits.Len32(span))
	if b > 16 {
		return (b + 1) / 2, 2
	}
	return b, 1
}

// prefixSums turns per-bucket counts into exclusive start offsets.
func prefixSums(count []int) {
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
}

// RowsFromPairs builds CSR rows from (row, value) pairs. Each part holds
// interleaved pairs — part[2i] is a row in [0, rows), part[2i+1] its
// value — as AlltoallvInt32 delivers them. Every row of the result is
// sorted ascending, with duplicates kept.
//
// The parts are consumed: one counting scatter copies the pairs into their
// rows in arrival order, and then every entry of parts is set to nil, so
// the input can be reclaimed while the rows are sorted. The sort handles
// all rows at once — one LSD counting pass per value digit, carrying each
// entry's row, and one stable counting scatter back by row — so the build
// holds the input and the result first, then the result and two nnz-sized
// scratch arrays (three when the values span 2^16 or more).
func RowsFromPairs[X int32 | int64](rows int32, parts [][]int32) (xadj []X, adj []int32) {
	xadj = make([]X, rows+1)
	nnz := 0
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, part := range parts {
		nnz += len(part) / 2
		for i := 0; i < len(part); i += 2 {
			xadj[part[i]+1]++
			lo, hi = min(lo, part[i+1]), max(hi, part[i+1])
		}
	}
	for a := int32(0); a < rows; a++ {
		xadj[a+1] += xadj[a]
	}
	adj = make([]int32, nnz)
	next := make([]X, rows)
	copy(next, xadj)
	for _, part := range parts {
		for i := 0; i < len(part); i += 2 {
			a := part[i]
			adj[next[a]] = part[i+1]
			next[a]++
		}
	}
	clear(parts)
	if nnz == 0 {
		return xadj, adj
	}

	// Entries ordered by the low value digit, then by the high one; rowOf
	// carries each entry's row through the passes.
	width, passes := radixPlan(uint32(hi) - uint32(lo))
	base, mask := uint32(lo), uint32(1)<<width-1
	count := make([]int, 1<<width)
	for _, v := range adj {
		count[(uint32(v)-base)&mask]++
	}
	prefixSums(count)
	rowOf, val := make([]int32, nnz), make([]int32, nnz)
	for a := int32(0); a < rows; a++ {
		for _, v := range adj[xadj[a]:xadj[a+1]] {
			d := (uint32(v) - base) & mask
			k := count[d]
			count[d]++
			rowOf[k], val[k] = a, v
		}
	}
	if passes == 2 {
		clear(count)
		for _, v := range val {
			count[(uint32(v)-base)>>width]++
		}
		prefixSums(count)
		rowOf2 := make([]int32, nnz)
		for k, v := range val {
			d := (uint32(v) - base) >> width
			j := count[d]
			count[d]++
			rowOf2[j], adj[j] = rowOf[k], v
		}
		// adj now holds the ordered values; the old value array is free.
		rowOf, val, adj = rowOf2, adj, val
	}

	// Stable scatter back by row.
	copy(next, xadj)
	for k, a := range rowOf {
		adj[next[a]] = val[k]
		next[a]++
	}
	return xadj, adj
}

// UniqueRows drops repeated values from the sorted rows of a CSR in place,
// in one linear pass: xadj is rewritten and the compacted adjacency is
// returned (it shares adj's array).
func UniqueRows[X int32 | int64](xadj []X, adj []int32) []int32 {
	var w X
	for a := 0; a+1 < len(xadj); a++ {
		row := adj[xadj[a]:xadj[a+1]]
		xadj[a] = w
		for i, u := range row {
			if i == 0 || u != row[i-1] {
				adj[w] = u
				w++
			}
		}
	}
	xadj[len(xadj)-1] = w
	return adj[:w:w]
}

// Order returns the stable sorting permutation of keys: keys[perm[0]] <=
// keys[perm[1]] <= ..., with equal keys in index order.
func Order(keys []int32) []int32 {
	perm := make([]int32, len(keys))
	if len(keys) == 0 {
		return perm
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	width, passes := radixPlan(uint32(hi) - uint32(lo))
	base, mask := uint32(lo), uint32(1)<<width-1
	count := make([]int, 1<<width)
	for _, k := range keys {
		count[(uint32(k)-base)&mask]++
	}
	prefixSums(count)
	for i, k := range keys {
		d := (uint32(k) - base) & mask
		perm[count[d]] = int32(i)
		count[d]++
	}
	if passes == 1 {
		return perm
	}
	clear(count)
	for _, k := range keys {
		count[(uint32(k)-base)>>width]++
	}
	prefixSums(count)
	out := make([]int32, len(keys))
	for _, i := range perm {
		d := (uint32(keys[i]) - base) >> width
		out[count[d]] = i
		count[d]++
	}
	return out
}
