package lockorderseeds

import (
	"sync"
	"time"
)

// pushSafe releases the lock before the send: no finding.
func (s *sender) pushSafe(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

// localSerializer uses a function-local mutex — the write-serializer
// pattern — which is exempt from tracking.
func localSerializer(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1
	mu.Unlock()
}

// tryPush sends through a select with a default: never blocks.
func (s *sender) tryPush(v int) {
	s.mu.Lock()
	select {
	case s.ch <- v:
	default:
	}
	s.mu.Unlock()
}

// sameOrder matches lockAB's A-then-B ordering: an edge, not a cycle.
func sameOrder(a *nodeA, b *nodeB) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// napVouched blocks, but its declaration vouches for the discipline:
// the scope-level allow clears the exported summary, so quiet below is
// not flagged for calling it under the lock.
//
//keyvet:allow lockorder (fixture: the wait is bounded by construction)
func napVouched() { time.Sleep(time.Millisecond) }

func (s *sender) quiet() {
	s.mu.Lock()
	napVouched()
	s.mu.Unlock()
}

// pushAllowed suppresses the send finding with a line-level allow.
func (s *sender) pushAllowed(v int) {
	s.mu.Lock()
	s.ch <- v //keyvet:allow lockorder (fixture: consumer drains first)
	s.mu.Unlock()
}

// spawned goroutines do not inherit the spawner's locks.
func (s *sender) spawn(done chan struct{}) {
	s.mu.Lock()
	go func() {
		<-done
	}()
	s.mu.Unlock()
}

// startLocked calls, under the lock, a function whose only blocking
// operation runs on the goroutine it spawns: no finding.
func (s *sender) startLocked(done chan struct{}) {
	s.mu.Lock()
	spawnWaiter(done)
	s.mu.Unlock()
}

func spawnWaiter(done chan struct{}) { go waitDone(done) }

func waitDone(done chan struct{}) { <-done }
