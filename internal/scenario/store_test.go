package scenario

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// getAll calls s.Get(key, build) from n goroutines released together and
// returns what each received.
func getAll[V any](s *Store[V], n int, key string, build func() (V, error)) ([]V, []error) {
	vals, errs := make([]V, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vals[i], errs[i] = s.Get(key, build)
		}(i)
	}
	close(start)
	wg.Wait()
	return vals, errs
}

// TestStoreSingleFlight: concurrent Gets of one key run one build, and
// every caller holds the value that build returned.
func TestStoreSingleFlight(t *testing.T) {
	for _, capacity := range []int{0, 1} {
		s := NewStore[*int](capacity)
		var builds atomic.Int32
		vals, errs := getAll(s, 32, "k", func() (*int, error) {
			builds.Add(1)
			return new(int), nil
		})
		for i := range vals {
			if errs[i] != nil || vals[i] != vals[0] || vals[i] == nil {
				t.Fatalf("capacity %d: caller %d got (%p, %v), caller 0 got %p", capacity, i, vals[i], errs[i], vals[0])
			}
		}
		if builds.Load() != 1 || s.Len() != 1 {
			t.Fatalf("capacity %d: %d builds, %d resident, want 1 and 1", capacity, builds.Load(), s.Len())
		}
	}
}

// TestStoreFailedBuild: a failed build reaches every caller waiting on it,
// but it is never resident — in a full store it evicts nothing — and the key
// builds again when next asked for.
func TestStoreFailedBuild(t *testing.T) {
	s := NewStore[*int](1)
	good, err := s.Get("good", func() (*int, error) { return new(int), nil })
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var builds atomic.Int32
	fail := func() (*int, error) { builds.Add(1); return nil, boom }
	_, errs := getAll(s, 16, "bad", fail)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err %v, want the build's", i, err)
		}
	}
	if s.Len() != 1 || s.Evictions() != 0 {
		t.Fatalf("after a failed build: %d resident, %d evictions, want 1 and 0", s.Len(), s.Evictions())
	}
	again, _ := s.Get("good", func() (*int, error) { t.Error("the healthy value was rebuilt"); return nil, nil })
	if again != good {
		t.Fatal("a failed build displaced the healthy resident")
	}
	before := builds.Load()
	if _, err := s.Get("bad", fail); !errors.Is(err, boom) || builds.Load() != before+1 {
		t.Fatalf("a failed key must build again when asked: err %v, builds %d -> %d", err, before, builds.Load())
	}
}

// TestStoreCapacity: capacity 0 never evicts; capacity c keeps the c most
// recently used, counts what it pushed out, and a caller that already holds
// an evicted value keeps a usable one.
func TestStoreCapacity(t *testing.T) {
	build := func(n int) func() (*int, error) {
		return func() (*int, error) { return &n, nil }
	}
	unbounded := NewStore[*int](0)
	for i := 0; i < 1000; i++ {
		if _, err := unbounded.Get(fmt.Sprint(i), build(i)); err != nil {
			t.Fatal(err)
		}
	}
	if unbounded.Len() != 1000 || unbounded.Evictions() != 0 {
		t.Fatalf("capacity 0: %d resident, %d evictions, want 1000 and 0", unbounded.Len(), unbounded.Evictions())
	}

	s := NewStore[*int](2)
	a, _ := s.Get("a", build(1))
	s.Get("b", build(2))
	s.Get("a", func() (*int, error) { t.Error("resident a was rebuilt"); return nil, nil }) // promotes a over b
	s.Get("c", build(3))                                                                    // evicts b, the least recently used
	if s.Len() != 2 || s.Evictions() != 1 {
		t.Fatalf("capacity 2 after a, b, a, c: %d resident, %d evictions, want 2 and 1", s.Len(), s.Evictions())
	}
	if again, _ := s.Get("a", build(-1)); again != a {
		t.Fatal("a was promoted and must have survived")
	}
	s.Get("b", build(20)) // b is gone: this builds, and evicts c
	s.Get("d", build(4))  // evicts a
	if *a != 1 {
		t.Fatalf("the evicted value reads %d to the caller still holding it, want 1", *a)
	}
	if rebuilt, _ := s.Get("a", build(10)); rebuilt == a || *rebuilt != 10 {
		t.Fatal("an evicted key must build a new value, not resurrect the old one")
	}
	if s.Len() != 2 || s.Evictions() != 4 {
		t.Fatalf("%d resident, %d evictions, want 2 and 4", s.Len(), s.Evictions())
	}
}
