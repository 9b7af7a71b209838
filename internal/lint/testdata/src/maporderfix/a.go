// Package maporderfix seeds map-iteration-order leaks for the maporder
// analyzer — sinks reached from inside a map range, and unsorted
// accumulators escaping one — plus the collect-then-sort and keyed-map
// patterns it must accept.
package maporderfix

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"qsmpi/internal/obs"
	"qsmpi/internal/trace"
)

func DirectPrint(m map[string]int) {
	for k, v := range m { // want `map iteration writes to fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func BuilderSink(m map[string]int) string {
	var sb strings.Builder
	for k := range m { // want `map iteration writes to sb\.WriteString`
		sb.WriteString(k)
	}
	return sb.String()
}

func TraceSink(r *trace.Recorder, m map[int]trace.Event) {
	for _, e := range m { // want `map iteration writes to trace\.Recorder\.Record`
		r.Record(e)
	}
}

func MetricSink(emit obs.EmitFn, m map[string]float64) {
	for name, v := range m { // want `map iteration writes to obs\.EmitFn`
		emit("pml", name, 0, v)
	}
}

func UnsortedEscape(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration accumulates into keys`
		keys = append(keys, k)
	}
	return keys
}

// CollectThenSort is the canonical clean pattern.
func CollectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SortSlice accepts any sorting call that mentions the accumulator.
func SortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// KeyedAccumulator is order-insensitive: a map writes by key.
func KeyedAccumulator(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// PerIteration state declared inside the loop never carries order out.
func PerIteration(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// KeysIterator: maps.Keys, maps.Values and maps.All yield in map order.
func KeysIterator(m map[string]int) {
	for k := range maps.Keys(m) { // want `map iteration writes to fmt\.Println`
		fmt.Println(k)
	}
}

// SliceRangeOK: ranging a slice is ordered; no diagnostic.
func SliceRangeOK(xs []string) {
	for _, x := range xs {
		fmt.Println(x)
	}
}
