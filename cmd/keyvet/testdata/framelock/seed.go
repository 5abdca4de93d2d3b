// Seeded lockorder violation across the frame.File seam, loaded under a
// fake import path inside internal/jobs together with the real
// internal/frame, whose Log.Append fsyncs through an interface.
package framelockseeds

import (
	"sync"

	"keysearch/internal/frame"
)

type table struct {
	mu  sync.Mutex
	log *frame.Log
}

// commit holds the mutex across the log's fsync, unvouched: the one
// finding.
func (t *table) commit(p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.log.Append(1, p)
	return err
}

// vouched is the store's shape: the same hold under a documented
// scope-level allow. Silent.
//
//keyvet:allow lockorder (append-then-apply: the fsync is under the lock on purpose)
func (t *table) vouched(p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.log.Append(1, p)
	return err
}
