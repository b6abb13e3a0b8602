package routing

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWithoutEdgesDerivation exercises the fabric daemon's
// per-request shape under the race detector: many goroutines derive
// what-if views via WithoutEdges while others query Next/Dist on and
// Stat() the parent. Two pins:
//
//   - Derived shared-table counts are deterministic: with the parent
//     fully built, a view's Stat().TablesBuilt immediately after
//     derivation equals the serially derived reference's (and therefore
//     so does the invalidated count, parentBuilt − shared).
//   - Every query answer — on the parent and on every derived view,
//     including lazily rebuilt invalidated tables — is byte-identical to
//     a serially derived reference engine.
func TestConcurrentWithoutEdgesDerivation(t *testing.T) {
	eng, g := testEngine(t, 7)
	eng.BuildAll(8)
	parentBuilt := eng.Stat().TablesBuilt
	if parentBuilt != eng.NumLayers()*eng.nr {
		t.Fatalf("parent not fully built: %d/%d", parentBuilt, eng.NumLayers()*eng.nr)
	}

	edgeSets := [][]int{
		{0}, {1, 2}, {3, 4, 5}, {0, 7, 11}, {2, 9, g.M() - 1}, {12},
	}

	// Serial references: per edge set, the shared-table count at
	// derivation and every (layer, src, dst) answer after full rebuild.
	type answer struct{ next, dist []int32 }
	refShared := make([]int, len(edgeSets))
	refAnswers := make([]answer, len(edgeSets))
	nl, nr := eng.NumLayers(), eng.nr
	flatten := func(e *Engine) answer {
		a := answer{
			next: make([]int32, nl*nr*nr),
			dist: make([]int32, nl*nr*nr),
		}
		for l := 0; l < nl; l++ {
			for s := 0; s < nr; s++ {
				for d := 0; d < nr; d++ {
					i := (l*nr+s)*nr + d
					a.next[i] = e.Next(l, s, d)
					a.dist[i] = int32(e.PathLen(l, s, d))
				}
			}
		}
		return a
	}
	parentRef := flatten(eng)
	for i, fe := range edgeSets {
		dv := eng.WithoutEdges(fe)
		refShared[i] = dv.Stat().TablesBuilt
		if refShared[i] >= parentBuilt {
			t.Fatalf("edge set %v invalidated nothing; pick edges on minimal paths", fe)
		}
		refAnswers[i] = flatten(dv)
	}

	const derivers, readers, rounds = 8, 4, 6
	var wg sync.WaitGroup
	errc := make(chan error, derivers+readers)
	for w := 0; w < derivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				set := (w + r) % len(edgeSets)
				dv := eng.WithoutEdges(edgeSets[set])
				if got := dv.Stat().TablesBuilt; got != refShared[set] {
					errc <- errf("derived view of set %d shares %d tables, want %d", set, got, refShared[set])
					return
				}
				// Query every (layer, src, dst) — invalidated tables rebuild
				// lazily here, concurrently with other derivers and readers.
				want := refAnswers[set]
				for l := 0; l < nl; l++ {
					for s := w; s < nr; s += derivers {
						for d := 0; d < nr; d++ {
							i := (l*nr+s)*nr + d
							if got := dv.Next(l, s, d); got != want.next[i] {
								errc <- errf("derived set %d Next(%d,%d,%d)=%d, want %d", set, l, s, d, got, want.next[i])
								return
							}
							if got := int32(dv.PathLen(l, s, d)); got != want.dist[i] {
								errc <- errf("derived set %d PathLen(%d,%d,%d)=%d, want %d", set, l, s, d, got, want.dist[i])
								return
							}
						}
					}
				}
			}
		}(w)
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds*2; r++ {
				if st := eng.Stat(); st.TablesBuilt != parentBuilt {
					errc <- errf("parent Stat changed under derivation: %d, want %d", st.TablesBuilt, parentBuilt)
					return
				}
				for l := 0; l < nl; l++ {
					for s := w; s < nr; s += readers {
						for d := 0; d < nr; d++ {
							i := (l*nr+s)*nr + d
							if got := eng.Next(l, s, d); got != parentRef.next[i] {
								errc <- errf("parent Next(%d,%d,%d)=%d changed under derivation, want %d", l, s, d, got, parentRef.next[i])
								return
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// errf builds an error for the concurrent workers (Fatal must not be
// called off the test goroutine; collect and report instead).
func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
