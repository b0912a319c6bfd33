package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randLatencies draws n latencies log-uniformly over [0, 2^40) ns, so
// every bucket scale from exact single-nanosecond buckets up is hit.
func randLatencies(rng *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Int63n(1 << uint(rng.Intn(41))))
	}
	return v
}

// TestHistQuantileBounds checks every reported quantile against the
// exact order statistic v of a sorted reference: the reported value is a
// bucket's lower bound, so it lies in [ceil(8/9*v), v].
func TestHistQuantileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 10000} {
		lat := randLatencies(rng, n)
		var h Hist
		for _, ns := range lat {
			h.Record(ns)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		qs := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
		for i := 0; i < 50; i++ {
			qs = append(qs, rng.Float64())
		}
		for _, q := range qs {
			rank := int(math.Ceil(q * float64(n)))
			if rank == 0 {
				rank = 1
			}
			v := lat[rank-1]
			got := h.Quantile(q)
			if lo := (8*v + 8) / 9; got < lo || got > v {
				t.Fatalf("n=%d q=%v: Quantile = %d, want in [%d, %d]", n, q, got, lo, v)
			}
		}
	}
}

// TestHistWorstCaseError pins the worst case of the lower-bound
// representative: just under 9/8 of a bucket's lower bound.
func TestHistWorstCaseError(t *testing.T) {
	var h Hist
	h.Record(36863)
	if got := h.P50(); got != 32768 {
		t.Fatalf("P50 = %d, want 32768", got)
	}
}

func TestHistMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var all Hist
	workers := make([]Hist, 4)
	for i, ns := range randLatencies(rng, 5000) {
		all.Record(ns)
		workers[i%len(workers)].Record(ns)
	}
	var merged Hist
	for i := range workers {
		merged.Merge(&workers[i])
	}
	if merged != all {
		t.Fatalf("merged per-worker Hists differ from one Hist over every latency")
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty Hist: Count %d Mean %v Max %d, want zeros", h.Count(), h.Mean(), h.Max())
	}
}

func TestGenScriptDeterministic(t *testing.T) {
	a, b := GenScript(42, 2000, 64), GenScript(42, 2000, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenScript returned different scripts for the same seed")
	}
	if reflect.DeepEqual(a, GenScript(43, 2000, 64)) {
		t.Fatal("GenScript ignored its seed")
	}
}
