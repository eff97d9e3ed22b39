package core

import (
	"testing"

	"tc2d/internal/hashset"
)

// benchBlocks builds one synthetic task row with nCols tasks: a U row of lu
// keys striding by 2 and L columns of lc keys striding by 3, so roughly a
// sixth of the shorter list intersects.
func benchBlocks(nCols, lu, lc int) (task, u csrBlock, l cscBlock) {
	var taskPairs, uPairs, lPairs []int32
	for b := 0; b < nCols; b++ {
		taskPairs = append(taskPairs, 0, int32(b))
	}
	for i := 0; i < lu; i++ {
		uPairs = append(uPairs, 0, int32(2*i))
	}
	for b := 0; b < nCols; b++ {
		for i := 0; i < lc; i++ {
			lPairs = append(lPairs, int32(b), int32(3*i))
		}
	}
	task = buildCSR(1, [][]int32{taskPairs})
	u = buildCSR(1, [][]int32{uPairs})
	lcsr := buildCSR(int32(nCols), [][]int32{lPairs})
	l = cscBlock{cols: lcsr.rows, xadj: lcsr.xadj, adj: lcsr.adj}
	return task, u, l
}

// BenchmarkIntersect measures the kernel's inner loop — one task row's worth
// of (U-row × L-column) hash intersections — per row shape: balanced lists
// and skewed ones (a long hashed U row probed by short L columns). probes/op
// reports the per-iteration probe stream, which is deterministic for a
// fixed shape.
func BenchmarkIntersect(b *testing.B) {
	shapes := []struct {
		name   string
		lu, lc int
	}{
		{"balanced-128x128", 128, 128},
		{"skewed-1024x16", 1024, 16},
	}
	const nCols = 64
	for _, sh := range shapes {
		task, u, l := benchBlocks(nCols, sh.lu, sh.lc)
		set := hashset.New(8 * sh.lu)
		b.Run(sh.name, func(b *testing.B) {
			var kc kernelCounters
			for i := 0; i < b.N; i++ {
				kernelRow(0, &task, &u, &l, set, Options{}, &kc)
			}
			b.ReportMetric(float64(kc.probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(kc.triangles)/float64(b.N), "hits/op")
		})
	}
}
