package cpu

import "sync"

// storePools recycles entryStore lane sets across Sim constructions, one
// sync.Pool per ring size. Every simulator of a figure sweep shares the same
// machine geometry, so after the first few constructions the RUU and fetch
// rings stop allocating entirely. Recycled lanes are zeroed before use.
var storePools sync.Map // int (size) -> *sync.Pool of *entryStore

func pooledEntryStore(n int) entryStore {
	if p, ok := storePools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			e := v.(*entryStore)
			e.clearAll()
			return *e
		}
	}
	return newEntryStore(n)
}

func freeEntryStore(e *entryStore) {
	if e.size() == 0 {
		return
	}
	p, _ := storePools.LoadOrStore(e.size(), &sync.Pool{})
	es := *e
	p.(*sync.Pool).Put(&es)
	*e = entryStore{}
}

// clearAll zeroes every lane, making a recycled store indistinguishable from
// a freshly allocated one.
func (e *entryStore) clearAll() {
	clear(e.si)
	clear(e.op)
	clear(e.readyAt)
	clear(e.doneAt)
	clear(e.predNext)
	clear(e.actualNext)
	clear(e.memAddr)
	clear(e.dep1)
	clear(e.dep2)
	clear(e.prevProd)
	clear(e.pred)
	clear(e.rasSnap)
	clear(e.flags)
	clear(e.state)
}

// Release returns the simulator's bulk storage — the RUU and fetch-queue
// lanes and the cache/TLB line arrays, which together dominate a Sim's
// footprint — to package pools for reuse by later constructions. The
// experiment harness calls it after reading a finished run's results; a
// batch of simulations then cycles a handful of allocations instead of
// allocating megabytes per run.
//
// The Sim must not be used afterwards.
func (s *Sim) Release() {
	freeEntryStore(&s.rob)
	freeEntryStore(&s.fq)
	s.il1.Free()
	s.dl1.Free()
	s.l2.Free()
	s.itlb.Free()
	s.dtlb.Free()
}
