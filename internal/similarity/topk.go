// Top-K selection and merging: the ranking primitives of the sharded
// query service. A shard never needs its full corpus slice ranked —
// only its local top K — and the coordinator needs the shard lists
// folded into one global order. Both sides use the same deterministic
// total order (score descending, index ascending), so the merged
// result of N shards is byte-identical to a single shard ranking the
// union: the property the degraded-partial-result drills pin.

package similarity

import (
	"container/heap"
	"sort"
)

// rankedBetter is the deterministic total order on results: higher
// score first, ties broken by ascending index.
func rankedBetter(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// worstHeap is a min-heap under rankedBetter: the root is the worst
// kept result, the one a better candidate evicts.
type worstHeap []Ranked

func (h worstHeap) Len() int           { return len(h) }
func (h worstHeap) Less(i, j int) bool { return rankedBetter(h[j], h[i]) }
func (h worstHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstHeap) Push(x any)        { *h = append(*h, x.(Ranked)) }
func (h *worstHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TopK selects the k best of results under the deterministic order
// without fully sorting them — O(n log k) — and returns them
// best-first. k <= 0 or k >= len(results) degrades to a full ranking.
func TopK(results []Ranked, k int) []Ranked {
	if k <= 0 || k >= len(results) {
		out := append([]Ranked(nil), results...)
		sort.Slice(out, func(i, j int) bool { return rankedBetter(out[i], out[j]) })
		return out
	}
	h := make(worstHeap, 0, k+1)
	for _, r := range results {
		if len(h) < k {
			heap.Push(&h, r)
			continue
		}
		if rankedBetter(r, h[0]) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	out := make([]Ranked, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Ranked)
	}
	return out
}

// MergeTopK folds independently ranked lists into the overall top k
// under the same deterministic order. The inputs need not be sorted;
// shard coordinators pass each surviving shard's local top K.
func MergeTopK(lists [][]Ranked, k int) []Ranked {
	var all []Ranked
	for _, l := range lists {
		all = append(all, l...)
	}
	return TopK(all, k)
}
