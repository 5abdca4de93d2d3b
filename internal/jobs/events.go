package jobs

import "sync"

// EventType labels a job lifecycle event.
type EventType string

// Event types, in rough lifecycle order.
const (
	EventSubmitted EventType = "submitted"
	EventState     EventType = "state"    // state transition (incl. terminal)
	EventProgress  EventType = "progress" // a lease committed
	EventFound     EventType = "found"    // a lease committed with solutions
)

// Event is one job lifecycle notification, carrying the job snapshot
// taken at emit time.
type Event struct {
	Type EventType `json:"type"`
	Job  Job       `json:"job"`
}

// rank orders event types for coalescing: when two events of one job
// merge, the merged event keeps the higher-ranked type.
func (t EventType) rank() int {
	switch t {
	case EventState:
		return 3
	case EventFound:
		return 2
	case EventSubmitted:
		return 1
	}
	return 0
}

// hub fans events out to subscribers (the SSE handlers, keymaster's
// single search). Publishing never blocks the scheduler, costs O(1) per
// subscriber, and a subscriber that falls behind misses no job's last
// state. Once its channel is full, each job keeps at most one pending
// event: a newer event of the job replaces the pending one's snapshot
// (which carries the state and the cumulative finds), and the merged
// event keeps the higher-ranked type — state over found over submitted
// over progress — so a terminal state always arrives labelled as one.
// The pending set is thus bounded by the jobs the store holds. A pump
// goroutine moves pending events into the channel, oldest job first, as
// the subscriber drains it, and exits when none is left; until then
// publish queues behind it, so a job's snapshots never arrive out of order.
type hub struct {
	mu     sync.Mutex
	nextID int
	subs   map[int]*subscriber
	closed bool
}

type subscriber struct {
	jobID   string // "" = all jobs
	ch      chan Event
	pending map[string]Event // per job, the event waiting for room in ch; guarded by hub.mu
	order   []string         // pending's job IDs, oldest first; guarded by hub.mu
	pumping bool             // a pump owns the sends to ch; guarded by hub.mu
	ended   bool             // the subscription is over; guarded by hub.mu
	gone    chan struct{}    // closed when ended is set, to wake a blocked pump
}

func newHub() *hub {
	return &hub{subs: make(map[int]*subscriber)}
}

// subscribe registers for events of one job (or all when jobID is "")
// and returns the channel plus a cancel function. The channel is
// closed on cancel or hub shutdown.
func (h *hub) subscribe(jobID string, buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 16
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	id := h.nextID
	h.nextID++
	sub := &subscriber{jobID: jobID, ch: make(chan Event, buf), pending: make(map[string]Event), gone: make(chan struct{})}
	h.subs[id] = sub
	return sub.ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if s, ok := h.subs[id]; ok {
			delete(h.subs, id)
			h.end(s)
		}
	}
}

// publish delivers the event to every matching subscriber: into its
// channel when the channel has room and nothing is pending, else into
// its pending set.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, s := range h.subs {
		if s.jobID != "" && s.jobID != ev.Job.ID {
			continue
		}
		if !s.pumping {
			select {
			case s.ch <- ev:
				continue
			default:
			}
			s.pumping = true
			go h.pump(s)
		}
		merged := ev
		if old, ok := s.pending[ev.Job.ID]; !ok {
			s.order = append(s.order, ev.Job.ID)
		} else if old.Type.rank() > ev.Type.rank() {
			merged.Type = old.Type
		}
		s.pending[ev.Job.ID] = merged
	}
}

// pump sends s's pending events into its channel, oldest job first, and
// exits when none is left or the subscription ends; in the latter case
// it closes the channel, which end left to it.
func (h *hub) pump(s *subscriber) {
	for {
		h.mu.Lock()
		if s.ended || len(s.order) == 0 {
			s.pumping = false
			if s.ended {
				close(s.ch)
			}
			h.mu.Unlock()
			return
		}
		id := s.order[0]
		s.order = s.order[1:]
		ev := s.pending[id]
		delete(s.pending, id)
		h.mu.Unlock()
		select {
		case s.ch <- ev:
		case <-s.gone:
		}
	}
}

// end finishes a subscription under h.mu. Its channel closes now, or,
// while a pump may be sending on it, when the pump sees gone.
func (h *hub) end(s *subscriber) {
	s.ended = true
	s.pending, s.order = nil, nil
	close(s.gone)
	if !s.pumping {
		close(s.ch)
	}
}

// close shuts the hub: all subscriber channels close and further
// publishes are dropped.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, s := range h.subs {
		delete(h.subs, id)
		h.end(s)
	}
}
