package graph

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkRowsFromPairs builds rows from parts with both row-pointer widths
// and compares every row with a slices.Sort of the same values, and the
// UniqueRows compaction with slices.Compact.
func checkRowsFromPairs(t *testing.T, rows int32, parts [][]int32) {
	t.Helper()
	want := make([][]int32, rows)
	for _, part := range parts {
		for i := 0; i < len(part); i += 2 {
			want[part[i]] = append(want[part[i]], part[i+1])
		}
	}
	for _, row := range want {
		slices.Sort(row)
	}
	clone := func() [][]int32 {
		c := make([][]int32, len(parts))
		for i, part := range parts {
			c[i] = slices.Clone(part)
		}
		return c
	}
	x64, adj64 := RowsFromPairs[int64](rows, clone())
	in := clone()
	x32, adj32 := RowsFromPairs[int32](rows, in)
	for i, part := range in {
		if part != nil {
			t.Fatalf("part %d not released", i)
		}
	}
	if len(x64) != int(rows)+1 || len(x32) != int(rows)+1 {
		t.Fatalf("xadj lengths %d/%d, want %d", len(x64), len(x32), rows+1)
	}
	if x64[rows] != int64(len(adj64)) || !slices.Equal(adj64, adj32) {
		t.Fatalf("int64 and int32 builds disagree")
	}
	for a := int32(0); a < rows; a++ {
		if int64(x32[a]) != x64[a] {
			t.Fatalf("xadj[%d]: int32 %d, int64 %d", a, x32[a], x64[a])
		}
		got := adj64[x64[a]:x64[a+1]]
		if !slices.Equal(got, want[a]) && len(got)+len(want[a]) > 0 {
			t.Fatalf("row %d: got %v, want %v", a, got, want[a])
		}
	}
	// UniqueRows compacts the sorted rows to their distinct values.
	uniq := UniqueRows(x32, adj32)
	for a := int32(0); a < rows; a++ {
		if got, want := uniq[x32[a]:x32[a+1]], slices.Compact(want[a]); !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("unique row %d: got %v, want %v", a, got, want)
		}
	}
}

// checkOrder compares Order with a stable comparison sort of the indices.
func checkOrder(t *testing.T, keys []int32) {
	t.Helper()
	want := make([]int32, len(keys))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(i, j int32) int { return cmp.Compare(keys[i], keys[j]) })
	if got := Order(keys); !slices.Equal(got, want) {
		t.Fatalf("Order(%v) = %v, want %v", keys, got, want)
	}
}

// pairsFromBytes decodes fuzz input: consecutive 8-byte records are
// (row, value) pairs, rows reduced mod rows; the pairs are dealt into
// nparts parts round-robin.
func pairsFromBytes(rows int32, nparts int, data []byte) [][]int32 {
	parts := make([][]int32, nparts)
	for i := 0; i+8 <= len(data); i += 8 {
		row := int32(binary.LittleEndian.Uint32(data[i:]) % uint32(rows))
		val := int32(binary.LittleEndian.Uint32(data[i+4:]))
		k := (i / 8) % nparts
		parts[k] = append(parts[k], row, val)
	}
	return parts
}

func pairBytes(pairs ...int32) []byte {
	b := make([]byte, 0, 4*len(pairs))
	for _, v := range pairs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func keyBytes(keys ...int32) []byte { return pairBytes(keys...) }

func FuzzRowsFromPairs(f *testing.F) {
	const maxI = math.MaxInt32
	f.Add(uint8(3), uint8(1), []byte{})                                // zero pairs
	f.Add(uint8(1), uint8(1), pairBytes(0, 5, 0, 3, 0, 9, 0, 3))       // one row
	f.Add(uint8(2), uint8(2), pairBytes(0, 7, 1, 7, 0, 7, 1, 7, 0, 7)) // all-duplicate rows
	f.Add(uint8(5), uint8(3), pairBytes(0, 4, 4, 1, 0, 2, 4, 3, 2, 0)) // empty rows between full ones
	f.Add(uint8(4), uint8(2), pairBytes(1, 70000, 1, 1<<20, 1, 65536, 1, 65535, 3, 0, 3, 1<<30))
	f.Add(uint8(3), uint8(2), pairBytes(2, maxI, 2, maxI-1, 0, 0, 2, maxI, 1, math.MinInt32, 1, -1))
	f.Fuzz(func(t *testing.T, rows, nparts uint8, data []byte) {
		if rows == 0 {
			rows = 1
		}
		if nparts == 0 {
			nparts = 1
		}
		checkRowsFromPairs(t, int32(rows), pairsFromBytes(int32(rows), int(nparts%8)+1, data))
	})
}

func FuzzOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(keyBytes(3, 1, 2, 1, 3))
	f.Add(keyBytes(7, 7, 7))
	f.Add(keyBytes(70000, 65535, 1<<20, 65536, 0, 70000))
	f.Add(keyBytes(math.MaxInt32, math.MaxInt32-1, 0, math.MaxInt32, math.MinInt32, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]int32, len(data)/4)
		for i := range keys {
			keys[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkOrder(t, keys)
	})
}

// TestRadixRandom drives both helpers over random inputs whose key spans
// select the one-digit, two-digit and all-equal paths.
func TestRadixRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, span := range []int64{1, 2, 1 << 8, 1 << 16, 1<<16 + 1, 1 << 24, 1 << 31, 1 << 32} {
		for trial := 0; trial < 20; trial++ {
			rows := int32(rng.Intn(50) + 1)
			lo := rng.Int63n(1<<32-span+1) - 1<<31
			parts := make([][]int32, rng.Intn(4)+1)
			keys := make([]int32, rng.Intn(400))
			for i := range keys {
				keys[i] = int32(lo + rng.Int63n(span))
				k := rng.Intn(len(parts))
				parts[k] = append(parts[k], int32(rng.Intn(int(rows))), keys[i])
			}
			checkRowsFromPairs(t, rows, parts)
			checkOrder(t, keys)
		}
	}
}
