package parallel

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Error("zero does not resolve to GOMAXPROCS")
	}
	if Workers(-4) != runtime.GOMAXPROCS(0) {
		t.Error("negative does not resolve to GOMAXPROCS")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int64, n)
		ForEach(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(4, 0, func(int) { t.Error("fn called for empty range") })
	ForEach(4, -1, func(int) { t.Error("fn called for negative range") })
}

func TestMapOrdered(t *testing.T) {
	in := []int{5, 4, 3, 2, 1}
	out := Map(8, in, func(i, v int) int { return v * 10 })
	for i, v := range out {
		if v != in[i]*10 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts pins the engine's core contract:
// per-item SplitMix-derived RNGs make results independent of scheduling.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	draw := func(workers int) []float64 {
		return MapN(workers, 500, func(i int) float64 {
			rng := xrand.NewAt(42, uint64(i))
			var sum float64
			for k := 0; k < 10; k++ {
				sum += rng.Normal(0, 1)
			}
			return sum
		})
	}
	seq := draw(1)
	for _, workers := range []int{2, 5, 16} {
		par := draw(workers)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d: item %d diverged: %v vs %v", workers, i, seq[i], par[i])
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			ForEach(workers, 100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		}()
	}
}

func TestChunks(t *testing.T) {
	if got := Chunks(100_000, 1024); got != 98 {
		t.Errorf("Chunks(100000, 1024) = %d", got)
	}
	if got := Chunks(0, 1024); got != 0 {
		t.Errorf("Chunks(0, 1024) = %d", got)
	}
	lo, hi := ChunkRange(97, 100_000, 1024)
	if lo != 99328 || hi != 100_000 {
		t.Errorf("last chunk range [%d, %d)", lo, hi)
	}
	total := 0
	for c := 0; c < Chunks(100_000, 1024); c++ {
		lo, hi := ChunkRange(c, 100_000, 1024)
		total += hi - lo
	}
	if total != 100_000 {
		t.Errorf("chunk ranges cover %d items", total)
	}
}

func TestChunksPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero chunk size accepted")
		}
	}()
	Chunks(10, 0)
}

// TestGroupBy: items with equal keys share a group, keyless items stand
// alone, and groups and their items keep first-appearance order.
func TestGroupBy(t *testing.T) {
	items := []string{"a1", "b1", "-", "a2", "c1", "-", "b2"}
	got := GroupBy(items, func(s string) (byte, bool) { return s[0], s != "-" })
	want := [][]string{{"a1", "a2"}, {"b1", "b2"}, {"-"}, {"c1"}, {"-"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups %v, want %v", got, want)
	}
}
