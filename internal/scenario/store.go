package scenario

import (
	"container/list"
	"sync"
)

// Store is a keyed single-flight build cache: concurrent Gets of one key
// run one build and all receive its result. A run's cells share topologies
// and fabrics through unbounded stores (RunSpecs); the daemon keeps its
// resident fabrics in a bounded one.
//
// A value is resident once its build succeeds. A store of capacity c > 0
// then evicts least-recently-used residents down to c; capacity 0 never
// evicts. Eviction only drops the store's reference, so a caller that
// already holds the value keeps using it. A failed build reaches every
// caller waiting on it but is never resident: it holds no capacity, evicts
// nothing, and the next Get of its key builds again.
type Store[V any] struct {
	mu        sync.Mutex
	capacity  int
	items     map[string]*storeEntry[V] // resident or being built
	order     list.List                 // resident keys, front = most recently used
	evictions int64
}

type storeEntry[V any] struct {
	once sync.Once
	v    V
	err  error
	el   *list.Element // position in Store.order; nil until resident
}

// NewStore returns an empty store; capacity 0 means unbounded.
func NewStore[V any](capacity int) *Store[V] {
	return &Store[V]{capacity: capacity, items: map[string]*storeEntry[V]{}}
}

// Get returns the value under key, calling build if the key is neither
// resident nor already being built. build runs outside the store's lock, so
// builds of different keys proceed concurrently. Callers asking for one key
// must pass equivalent builds: whichever of them arrives at the entry first
// runs its own.
func (s *Store[V]) Get(key string, build func() (V, error)) (V, error) {
	s.mu.Lock()
	e, ok := s.items[key]
	if !ok {
		e = new(storeEntry[V])
		s.items[key] = e
	} else if e.el != nil {
		s.order.MoveToFront(e.el)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.v, e.err = build()
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.err != nil {
			delete(s.items, key)
			return
		}
		e.el = s.order.PushFront(key)
		for s.capacity > 0 && s.order.Len() > s.capacity {
			delete(s.items, s.order.Remove(s.order.Back()).(string))
			s.evictions++
		}
	})
	return e.v, e.err
}

// Len returns the number of resident values.
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Values returns the resident values, most recently used first.
func (s *Store[V]) Values() []V {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]V, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, s.items[el.Value.(string)].v)
	}
	return out
}

// Evictions returns how many residents the capacity has pushed out so far.
func (s *Store[V]) Evictions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictions
}
