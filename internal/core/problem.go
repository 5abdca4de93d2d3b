package core

import "keysearch/internal/keyspace"

// TestFunc is the condition C : S -> {0,1} of §III.A. It reports whether
// the candidate is a solution. Implementations must treat the candidate
// slice as read-only and must not retain it after returning.
type TestFunc func(candidate []byte) bool

// TestFactory returns an independent TestFunc for one worker. Search calls
// it once per worker goroutine, so the returned closures may carry mutable
// per-worker state (e.g. a reverse-context cache) without locking.
type TestFactory func() TestFunc

// Enumerator walks candidates of a search space in identifier order. It is
// the pairing of the paper's f (Seek) and next (Next) operators. An
// Enumerator is owned by a single worker and need not be safe for
// concurrent use.
type Enumerator interface {
	// Seek positions the enumerator on candidate f(id).
	Seek(id keyspace.ID) error
	// Candidate returns the current candidate. The returned slice is
	// invalidated by the next call to Seek or Next.
	Candidate() []byte
	// Next advances to the successor candidate; it returns false when the
	// space is exhausted.
	Next() bool
}

// Factory creates independent Enumerators over one search space; Search
// gives each worker its own. Size is the cardinality |S|.
type Factory interface {
	NewEnumerator() Enumerator
	Size() keyspace.ID
}

// FuncFactory adapts a closure to the Factory interface.
type FuncFactory struct {
	New      func() Enumerator
	SpaceLen keyspace.ID
}

// NewEnumerator calls the wrapped constructor.
func (f FuncFactory) NewEnumerator() Enumerator { return f.New() }

// Size returns the wrapped space size.
func (f FuncFactory) Size() keyspace.ID { return f.SpaceLen }
