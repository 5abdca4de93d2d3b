package shardplane

import (
	"sync"

	"keysearch/internal/jobs"
	"keysearch/internal/telemetry"
)

// planeWatch merges the event streams of every shard into one channel.
// Per-shard ordering is preserved (one pump per shard, events forwarded
// in hub order); cross-shard interleaving is arbitrary, which matches
// the single-service API — subscribers only ever relied on per-job
// order, and a job lives on exactly one shard. When a shard is
// replaced after promotion, its pump is re-attached to the new service
// so the subscription rides across the failover.
type planeWatch struct {
	plane  *Plane
	jobID  string // "" = all jobs
	out    chan jobs.Event
	done   chan struct{}
	stop   sync.Once
	merged *telemetry.Counter // events forwarded into out (nil = uncounted)

	mu    sync.Mutex
	pumps map[string]*pump // by shard name
}

// pump is one shard's forwarding goroutine.
type pump struct {
	cancel   func()
	finished chan struct{}
}

// Watch subscribes to one job's events ("" = all jobs) across every
// shard. The returned channel is never closed; callers end the watch
// with the cancel function (SSE handlers tie it to the request context).
// A subscriber that stops draining stalls the pumps, and each shard's hub
// then holds at most one pending event per job. The buffer absorbs cross-shard
// bursts. merged, when non-nil, counts every event forwarded into the
// merged channel.
func (p *Plane) Watch(jobID string, merged *telemetry.Counter) (<-chan jobs.Event, func()) {
	w := &planeWatch{
		plane:  p,
		jobID:  jobID,
		out:    make(chan jobs.Event, 256),
		done:   make(chan struct{}),
		merged: merged,
		pumps:  make(map[string]*pump),
	}
	p.mu.Lock()
	p.watchers[w] = true
	shards := make([]*Shard, 0, len(p.shards))
	for _, sh := range p.shards {
		shards = append(shards, sh)
	}
	p.mu.Unlock()
	for _, sh := range shards {
		w.attach(sh)
	}
	return w.out, w.cancel
}

// attach subscribes against one shard's hub and pumps its events into
// the merged channel until the subscription closes (shard death or
// cancel).
func (w *planeWatch) attach(sh *Shard) {
	ch, cancel := sh.Service().Watch(w.jobID)
	pm := &pump{cancel: cancel, finished: make(chan struct{})}
	w.mu.Lock()
	w.pumps[sh.Name()] = pm
	w.mu.Unlock()
	go func() {
		defer close(pm.finished)
		for {
			select {
			case <-w.done:
				cancel()
				return
			case ev, ok := <-ch:
				if !ok {
					return
				}
				select {
				case w.out <- ev:
					w.merged.Inc()
				case <-w.done:
					cancel()
					return
				}
			}
		}
	}()
}

// swap re-attaches the watcher to a shard's replacement. The old
// shard's hub is already closed (it died before Replace), so its pump
// is exiting — wait for it, guaranteeing the old stream's events are
// all in the merged channel before the new stream's, then subscribe
// against the promoted service.
func (w *planeWatch) swap(sh *Shard) {
	w.mu.Lock()
	old := w.pumps[sh.Name()]
	w.mu.Unlock()
	if old != nil {
		<-old.finished
	}
	select {
	case <-w.done:
		return // watcher cancelled while the old pump drained
	default:
	}
	w.attach(sh)
}

// cancel ends the watch: unregister, wake every pump, drop the hub
// subscriptions.
func (w *planeWatch) cancel() {
	w.stop.Do(func() {
		w.plane.mu.Lock()
		delete(w.plane.watchers, w)
		w.plane.mu.Unlock()
		close(w.done)
	})
}
