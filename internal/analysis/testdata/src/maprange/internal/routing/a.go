// Corpus for the maprange analyzer. The package poses as a real
// ordering-sensitive package via its import-path suffix.
package routing

import (
	"maps"
	"slices"
	"sort"
)

// Float accumulation in map order rounds nondeterministically.
func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `maprange: range over a map`
		sum += v
	}
	return sum
}

// Collected keys that never reach a sort stay in map order.
func keysUnsorted(m map[int]bool) []int {
	var keys []int
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return keys
}

// Collect-then-sort is order-insensitive, but the rule does not read
// bodies: the loop is flagged like any other...
func keysSorted(m map[int]bool) []int {
	var keys []int
	for k := range m { // want `range over slices.Sorted\(maps.Keys\(m\)\)`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// ...because the sanctioned form is one expression, and ranging over the
// slice it returns is not a map range.
func keysSortedExpr(m map[int]bool) []int {
	var doubled []int
	for _, k := range slices.Sorted(maps.Keys(m)) {
		doubled = append(doubled, 2*k)
	}
	return doubled
}

// Integer counting commutes exactly — which is a reason to write down,
// not one the analyzer infers.
func count(m map[string]int) int {
	n := 0
	for range m { // want `annotate //det:allow maprange`
		n++
	}
	return n
}

func countAllowed(m map[string]int) int {
	n := 0
	//det:allow maprange -- corpus: exact integer count, the same in any order
	for range m {
		n++
	}
	return n
}

// A named map type is still a map.
type set map[int]bool

func (s set) first() int {
	for k := range s { // want `range over a map`
		return k
	}
	return -1
}

// The maps iterators yield map order too.
func iterators(m map[string]int) (ks []string, vs []int, n int) {
	for k := range maps.Keys(m) { // want `range over a map`
		ks = append(ks, k)
	}
	for v := range maps.Values(m) { // want `range over a map`
		vs = append(vs, v)
	}
	for range maps.All(m) { // want `range over a map`
		n++
	}
	return ks, vs, n
}

// Append-to-slot builds slices whose element order is the iteration
// order.
func adjacency(edges map[[2]int]bool) map[int][]int {
	adj := map[int][]int{}
	for e := range edges { // want `range over a map`
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return adj
}

// Assign-form range leaks the last-iterated element.
func assignForm(m map[string]int) string {
	var last string
	for last = range m { // want `range over a map`
	}
	return last
}

// A bare call may observe iteration order through side effects.
func emit(m map[string]int, f func(string)) {
	for k := range m { // want `range over a map`
		f(k)
	}
}

// An annotated loop is a documented exception.
func emitAllowed(m map[string]int, f func(string)) {
	//det:allow maprange -- corpus: callback is order-insensitive by contract
	for k := range m {
		f(k)
	}
}

// String concatenation depends on iteration order.
func join(m map[string]bool) string {
	var s string
	for k := range m { // want `range over a map`
		s += k
	}
	return s
}

// Deferred calls run in (reverse) iteration order.
func deferring(m map[string]func()) {
	for _, f := range m { // want `range over a map`
		defer f()
	}
}

// A map range inside a closure in a package-level initializer is found
// too; slices and channels are not maps.
var initKeys = func(m map[int]bool, xs []int, ch chan int) (out []int) {
	for k := range m { // want `range over a map`
		out = append(out, k)
	}
	for _, x := range xs {
		out = append(out, x)
	}
	for x := range ch {
		out = append(out, x)
	}
	return out
}
