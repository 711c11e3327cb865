package spmspv

import "sync"

// GatedStore wraps a ServingStore so that every coalesced flush waits
// at a gate until Release. With a flush held in flight, a test decides
// exactly which requests queue behind it instead of relying on timing.
type GatedStore struct {
	ServingStore
	// Panic, when set before Release, makes every flush past the gate
	// panic with it instead of running.
	Panic any
	// HoldFirst, when set before the first flush, holds only that many
	// flushes at the gate; later ones pass it at once.
	HoldFirst int

	open    chan struct{}
	release sync.Once
	mu      sync.Mutex
	flushes int // flushes that reached the gate
	slots   int // requests those flushes carry
}

// NewGatedStore returns st behind a closed gate.
func NewGatedStore(st ServingStore) *GatedStore {
	return &GatedStore{ServingStore: st, open: make(chan struct{})}
}

func (g *GatedStore) do(req *Request) (*Response, error) {
	g.mu.Lock()
	g.flushes++
	g.slots += len(req.Xs)
	held := g.HoldFirst <= 0 || g.flushes <= g.HoldFirst
	g.mu.Unlock()
	if held {
		<-g.open
	}
	if g.Panic != nil {
		panic(g.Panic)
	}
	return g.ServingStore.do(req)
}

// Release opens the gate for every held and later flush; releasing an
// open gate does nothing.
func (g *GatedStore) Release() { g.release.Do(func() { close(g.open) }) }

// Flushes reports how many flushes have reached the gate and how many
// requests they carry.
func (g *GatedStore) Flushes() (flushes, slots int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushes, g.slots
}

// QueuedMults reports how many coalescible requests wait in the
// server's batchers for a flush.
func (s *Server) QueuedMults() int {
	n := 0
	s.batchers.Range(func(_, b any) bool {
		mb := b.(*multBatcher)
		mb.mu.Lock()
		n += len(mb.pending)
		mb.mu.Unlock()
		return true
	})
	return n
}
