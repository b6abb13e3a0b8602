package routing

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
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
	refShared := make([]int, len(edgeSets))
	refAnswers := make([]answers, len(edgeSets))
	nl, nr := eng.NumLayers(), eng.nr
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

// answers is every (layer, src, dst) answer of an engine, as flatten reads
// them: Next and PathLen at index (layer·Nr + src)·Nr + dst.
type answers struct{ next, dist []int32 }

func flatten(e *Engine) answers {
	nl, nr := e.NumLayers(), e.nr
	a := answers{
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

// TestConcurrentDeriveDuringFirstTouch derives what-if views from a parent
// whose tables are still being first-touched: touchers publish the
// parent's tables lazily while each derivation runs the parent's BuildAll
// over the same slots, indexes the parity columns and takes its census,
// then queries its view and a view of its view. Every census must equal
// the one a serially derived view of a fully built engine takes, and every
// view answer a fresh engine on G∖F. Run under -race in CI.
func TestConcurrentDeriveDuringFirstTouch(t *testing.T) {
	eng, g := testEngine(t, 7)
	nl, nr := eng.NumLayers(), eng.nr
	for d := 0; d < nr; d += 5 { // a few tables before the run
		eng.table(d%nl, d)
	}
	edgeSets := [][]int{{0}, {1, 2}, {3, 4, 5}, {0, 7, 11}, {2, 9, g.M() - 1}, {12}}
	want := make([]answers, len(edgeSets))
	wantRepair := make([][2]int, len(edgeSets))
	ref := NewEngine(g, eng.masks, 7)
	ref.BuildAll(2)
	for i, fe := range edgeSets {
		want[i] = flatten(freshEngineWithout(g, eng.masks, fe, 7))
		s, inv := ref.WithoutEdges(fe).Repair()
		wantRepair[i] = [2]int{s, inv}
	}
	// The view of a view of set i fails set i+1 on top.
	wantNested := make([]answers, len(edgeSets))
	for i, fe := range edgeSets {
		wantNested[i] = flatten(freshEngineWithout(g, eng.masks, slices.Concat(fe, edgeSets[(i+1)%len(edgeSets)]), 7))
	}

	const touchers, derivers, rounds = 4, 4, 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, derivers)
	for w := 0; w < touchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := graph.NewRand(int64(w))
			<-start
			for _, slot := range rng.Perm(nl * nr) {
				eng.Next(slot/nr, rng.Intn(nr), slot%nr)
			}
		}(w)
	}
	for w := 0; w < derivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				set := (w + r) % len(edgeSets)
				dv := eng.WithoutEdges(edgeSets[set])
				if s, i := dv.Repair(); [2]int{s, i} != wantRepair[set] {
					errc <- errf("set %d: Repair() = %d/%d, want %d/%d", set, s, i, wantRepair[set][0], wantRepair[set][1])
					return
				}
				nested := dv.WithoutEdges(edgeSets[(set+1)%len(edgeSets)])
				for _, v := range []struct {
					e    *Engine
					want answers
				}{{dv, want[set]}, {nested, wantNested[set]}} {
					for l := 0; l < nl; l++ {
						for s := (w + r) % derivers; s < nr; s += derivers {
							for d := 0; d < nr; d++ {
								i := (l*nr+s)*nr + d
								if got := v.e.Next(l, s, d); got != v.want.next[i] {
									errc <- errf("set %d Next(%d,%d,%d)=%d, want %d", set, l, s, d, got, v.want.next[i])
									return
								}
								if got := int32(v.e.PathLen(l, s, d)); got != v.want.dist[i] {
									errc <- errf("set %d PathLen(%d,%d,%d)=%d, want %d", set, l, s, d, got, v.want.dist[i])
									return
								}
							}
						}
					}
				}
			}
		}(w)
	}
	close(start)
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

// TestConcurrentViewRepair has many goroutines look up the same invalidated
// tables of one view, all released at once, where each repairs a copy of
// the root's table: off a root built before the derivation, and off one
// the derivation itself builds, which must leave it complete. Every
// goroutine must observe the one published table, equal to the oracle's on
// G∖F. Run under -race in CI.
func TestConcurrentViewRepair(t *testing.T) {
	eng, g := testEngine(t, 7)
	masks := eng.masks
	failed := []int{0, 7, 11}
	for _, built := range []bool{true, false} {
		for round := 0; round < 10; round++ {
			root := NewEngine(g, masks, 7)
			if built {
				root.BuildAll(2)
			}
			view := root.WithoutEdges(failed)
			if got := root.Stat().TablesBuilt; got != len(root.tables) {
				t.Fatalf("built=%v round %d: the root holds %d of %d tables after derivation", built, round, got, len(root.tables))
			}
			nr := view.nr
			var slots []int // the tables the view cannot take from its root
			for slot := range view.NumLayers() * nr {
				if view.lookup(slot/nr, slot%nr) == nil {
					slots = append(slots, slot)
				}
			}
			if len(slots) == 0 {
				t.Fatal("the failed edges invalidate nothing; pick edges on minimal paths")
			}
			const workers = 8
			seen := make([][]*table, workers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for _, slot := range slots {
						seen[w] = append(seen[w], view.table(slot/nr, slot%nr))
					}
				}(w)
			}
			close(start)
			wg.Wait()
			for w := 1; w < workers; w++ {
				if !slices.Equal(seen[w], seen[0]) {
					t.Fatalf("built=%v round %d: goroutine %d observed other tables than goroutine 0", built, round, w)
				}
			}
			for _, slot := range slots {
				l, d := slot/nr, slot%nr
				if diff := diffTable(view, l, d, referenceTable(g, layerMask(view, l), d)); diff != "" {
					t.Fatalf("built=%v round %d table (%d,%d): %s", built, round, l, d, diff)
				}
			}
		}
	}
}
