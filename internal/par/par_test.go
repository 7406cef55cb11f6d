package par

import (
	"sync/atomic"
	"testing"
)

func TestForRangeCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 97, 1000} {
			seen := make([]int32, n)
			ForRange(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForRangeChunksAreDisjointAndOrdered(t *testing.T) {
	var total int64
	ForRange(1000, 8, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 1000 {
		t.Fatalf("covered %d of 1000", total)
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	ForEach(0, 4, func(int) { t.Fatal("called for empty range") })
}

func TestExclusivePrefixSum64(t *testing.T) {
	counts := []int64{3, 0, 5, 2}
	total := ExclusivePrefixSum64(counts)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int64{0, 3, 3, 8}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if ExclusivePrefixSum64(nil) != 0 {
		t.Fatal("nil prefix sum nonzero")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestMapReduceMaxFloat64(t *testing.T) {
	xs := []float64{0.5, 3.25, 1.0, 3.24999, 2.0, 0.0, 3.25}
	for _, w := range []int{1, 2, 3, 8, 100} {
		got := MapReduceMaxFloat64(len(xs), w, func(i int) float64 { return xs[i] })
		if got != 3.25 {
			t.Fatalf("workers=%d: got %v, want 3.25", w, got)
		}
	}
	if MapReduceMaxFloat64(0, 4, func(int) float64 { return 9 }) != 0 {
		t.Fatal("empty range nonzero")
	}
	if MapReduceMaxFloat64(-1, 4, func(int) float64 { return 9 }) != 0 {
		t.Fatal("negative range nonzero")
	}
	// The maximum at the last index must not be lost to chunk-slot
	// bookkeeping errors.
	n := 1001
	got := MapReduceMaxFloat64(n, 7, func(i int) float64 { return float64(i) })
	if got != float64(n-1) {
		t.Fatalf("last-index max: got %v, want %d", got, n-1)
	}
}

func TestMapReduceMaxFloat64Deterministic(t *testing.T) {
	n := 5000
	fn := func(i int) float64 { return float64((i*2654435761)%997) / 997 }
	want := MapReduceMaxFloat64(n, 1, fn)
	for _, w := range []int{2, 3, 8, 16} {
		if got := MapReduceMaxFloat64(n, w, fn); got != want {
			t.Fatalf("workers=%d: %v != %v", w, got, want)
		}
	}
}
