package similarity

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomRanked builds a result set with deliberate score ties so the
// index tiebreak is exercised.
func randomRanked(rng *rand.Rand, n int) []Ranked {
	out := make([]Ranked, n)
	for i := range out {
		out[i] = Ranked{Index: i, Score: float64(rng.Intn(n/2+1)) / 10}
	}
	rng.Shuffle(n, func(i, j int) { out[i].Index, out[j].Index = out[j].Index, out[i].Index })
	return out
}

// sortRanked is an independent reference for the deterministic order:
// an insertion sort, descending by score, ties by index.
func sortRanked(out []Ranked) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Score > out[j-1].Score ||
				(out[j].Score == out[j-1].Score && out[j].Index < out[j-1].Index) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
}

// TestTopKMatchesFullSort: TopK(results, k) must equal the first k of
// the full deterministic sort, for every k — the heap is an
// optimization, never a different order.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 64} {
		results := randomRanked(rng, n)
		full := append([]Ranked(nil), results...)
		sortRanked(full)
		for k := -1; k <= n+2; k++ {
			got := TopK(results, k)
			want := full
			if k > 0 && k < n {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d:\n  got  %v\n  want %v", n, k, got, want)
			}
		}
	}
}

func TestTopKDoesNotMutateInput(t *testing.T) {
	results := []Ranked{{Index: 0, Score: 1}, {Index: 1, Score: 3}, {Index: 2, Score: 2}}
	snapshot := append([]Ranked(nil), results...)
	TopK(results, 2)
	TopK(results, 0)
	if !reflect.DeepEqual(results, snapshot) {
		t.Fatalf("input mutated: %v", results)
	}
}

// TestMergeTopKEqualsUnion: merging per-shard top-K lists equals the
// top K of the union — the coordinator's correctness condition.
func TestMergeTopKEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := randomRanked(rng, 40)
	const k = 8
	// Partition round-robin into 4 "shards", rank each locally.
	lists := make([][]Ranked, 4)
	for i, r := range all {
		lists[i%4] = append(lists[i%4], r)
	}
	for i := range lists {
		lists[i] = TopK(lists[i], k)
	}
	got := MergeTopK(lists, k)
	want := TopK(all, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged shard top-K diverges from union top-K:\n  got  %v\n  want %v", got, want)
	}
}
