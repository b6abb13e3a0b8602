package netsim

import "sync"

// Conservative parallel execution. The engine advances in synchronization
// windows of lookahead length: with gvt the earliest queued time anywhere,
// every shard may drain its local events in [gvt, gvt+lookahead)
// independently, because any event one shard creates for another — a link
// delivery — is scheduled at least one link delay (>= lookahead) after its
// cause, i.e. at or beyond the window end. Cross-shard events accumulate
// in per-destination outboxes during the window and merge into the target
// heaps at the barrier, single-threaded, before the next window begins.
// The merge order is irrelevant to results: heaps order by the canonical
// (at, key), which is shard-count-invariant by construction (engine.go).

// runParallel drives the shard workers window by window.
func (e *Engine) runParallel(until Time) int {
	before := e.Executed()
	var wg sync.WaitGroup
	for _, sh := range e.shards {
		sh.cmd = make(chan Time, 1)
		sh.done = make(chan struct{}, 1)
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			for wend := range sh.cmd {
				// Events at the window end wait for the barrier merge;
				// events at the horizon still run, as in a serial run.
				ran := sh.run(min(wend-1, until))
				sh.windows++
				if ran == 0 {
					sh.stalls++
				}
				sh.done <- struct{}{}
			}
		}(sh)
	}

	for {
		gvt := maxTime
		for _, sh := range e.shards {
			if t := sh.heap.minAt(); t < gvt {
				gvt = t
			}
		}
		if gvt == maxTime || gvt > until {
			break
		}
		wend := gvt + e.lookahead
		for _, sh := range e.shards {
			sh.cmd <- wend
		}
		for _, sh := range e.shards {
			<-sh.done
		}
		// Barrier merge: move every outboxed delivery into its target heap.
		// The channel round-trip above orders these accesses with the
		// workers' (now idle) window drains.
		for _, src := range e.shards {
			for d, box := range src.outbox {
				if len(box) == 0 {
					continue
				}
				dst := e.shards[d]
				for i := range box {
					dst.push(box[i].at, box[i].key, box[i].pay)
					box[i] = outEvent{} // drop payload references
				}
				src.outbox[d] = box[:0]
			}
		}
		e.windows++
	}

	for _, sh := range e.shards {
		close(sh.cmd)
	}
	wg.Wait()

	empty := true
	e.now = 0
	for _, sh := range e.shards {
		if sh.now > e.now {
			e.now = sh.now
		}
		if sh.heap.len() > 0 {
			empty = false
		}
	}
	if empty && e.now < until {
		e.now = until
	}
	return int(e.Executed() - before)
}
