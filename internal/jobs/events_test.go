package jobs

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestHubNeverDropsTerminalEvent: a subscriber that does not drain while
// hundreds of progress events, a found event and the terminal state are
// published still receives every job's terminal state, last for its job
// and carrying the find, with the job's snapshots never going backwards
// and the backlog coalesced to a few events.
func TestHubNeverDropsTerminalEvent(t *testing.T) {
	h := newHub()
	ch, cancel := h.subscribe("j1", 4)
	defer cancel()
	other, cancelOther := h.subscribe("", 4) // all jobs, also stalled
	defer cancelOther()

	tested := uint64(0)
	var found []string
	pub := func(typ EventType, id string, state State) {
		tested++
		h.publish(Event{Type: typ, Job: Job{ID: id, State: state, Tested: tested, Found: found}})
	}
	for i := 0; i < 300; i++ {
		pub(EventProgress, "j1", StateRunning)
		pub(EventProgress, "j2", StateRunning)
	}
	found = []string{"abc"}
	pub(EventFound, "j1", StateRunning)
	for i := 0; i < 300; i++ {
		pub(EventProgress, "j1", StateRunning)
	}
	pub(EventState, "j2", StateDone)
	pub(EventState, "j1", StateDone)

	for _, sub := range []struct {
		name  string
		ch    <-chan Event
		ends  int // terminal events to wait for
		limit int // events the stream may carry at most: the buffer, one in the pump's hand, one pending per job
	}{
		{"one job", ch, 1, 4 + 1 + 1},
		{"all jobs", other, 2, 4 + 1 + 2},
	} {
		var got []Event
		last := map[string]Event{}
		founds, ends := 0, 0
		timeout := time.After(5 * time.Second)
		for ends < sub.ends {
			select {
			case ev := <-sub.ch:
				got = append(got, ev)
				if prev, ok := last[ev.Job.ID]; ok && ev.Job.Tested < prev.Job.Tested {
					t.Fatalf("%s: job %s went back from %d to %d", sub.name, ev.Job.ID, prev.Job.Tested, ev.Job.Tested)
				}
				if prev, ok := last[ev.Job.ID]; ok && prev.Job.State.Terminal() {
					t.Fatalf("%s: job %s has %+v after its terminal state", sub.name, ev.Job.ID, ev)
				}
				last[ev.Job.ID] = ev
				if ev.Type == EventFound {
					founds++
				}
				if ev.Type == EventState && ev.Job.State.Terminal() {
					ends++
				}
			case <-timeout:
				t.Fatalf("%s: %d of %d terminal events after %d events", sub.name, ends, sub.ends, len(got))
			}
		}
		if founds > 1 || len(got) > sub.limit {
			t.Fatalf("%s: %d found events in %d events, want at most 1 in at most %d", sub.name, founds, len(got), sub.limit)
		}
		if end := last["j1"]; end.Job.Tested != tested || len(end.Job.Found) != 1 {
			t.Fatalf("%s: j1 ends with %+v, want its terminal state at %d with the find", sub.name, end, tested)
		}
	}
}

// TestHubStalledSubscriberStaysBounded: an all-jobs subscriber that never
// drains holds at most one pending event per job, however many events
// each job publishes.
func TestHubStalledSubscriberStaysBounded(t *testing.T) {
	h := newHub()
	_, cancel := h.subscribe("", 4)
	defer cancel()
	const jobs = 500
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%06d", i)
		h.publish(Event{Type: EventSubmitted, Job: Job{ID: id, State: StatePending}})
		for k := 0; k < 50; k++ {
			h.publish(Event{Type: EventProgress, Job: Job{ID: id, State: StateRunning, Tested: uint64(k)}})
		}
		h.publish(Event{Type: EventFound, Job: Job{ID: id, State: StateRunning, Tested: 50}})
		h.publish(Event{Type: EventState, Job: Job{ID: id, State: StateDone, Tested: 50}})
	}
	for k := 0; k < 10000; k++ {
		typ := EventProgress
		if k == 5000 {
			typ = EventFound
		}
		h.publish(Event{Type: typ, Job: Job{ID: "hot", State: StateRunning, Tested: uint64(k)}})
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		if len(s.pending) > jobs+1 || len(s.order) != len(s.pending) {
			t.Fatalf("%d pending events in an order of %d for %d jobs", len(s.pending), len(s.order), jobs+1)
		}
		for id, ev := range s.pending {
			want := Event{Type: EventState, Job: Job{ID: id, State: StateDone, Tested: 50}}
			if id == "hot" {
				// The find outranks the progress after it; the snapshot is the newest.
				want = Event{Type: EventFound, Job: Job{ID: id, State: StateRunning, Tested: 9999}}
			}
			if ev.Type != want.Type || ev.Job.State != want.Job.State || ev.Job.Tested != want.Job.Tested {
				t.Fatalf("job %s pends %s %s at %d, want %s %s at %d", id,
					ev.Type, ev.Job.State, ev.Job.Tested, want.Type, want.Job.State, want.Job.Tested)
			}
		}
	}
}

// TestSSEStalledClientReleased: an SSE client that stops reading has its
// stream cut once a write cannot finish within sseWriteTimeout, which
// releases its hub subscription.
func TestSSEStalledClientReleased(t *testing.T) {
	old := sseWriteTimeout
	sseWriteTimeout = 100 * time.Millisecond
	t.Cleanup(func() { sseWriteTimeout = old })
	svc, srv := startAPI(t, 0, Options{})
	subs := func() int {
		svc.hub.mu.Lock()
		defer svc.hub.mu.Unlock()
		return len(svc.hub.subs)
	}

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := fmt.Fprintf(conn, "GET /events HTTP/1.1\r\nHost: jobs\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for subs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	big := []string{strings.Repeat("x", 64<<10)}
	for i := uint64(0); subs() != 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("a client that stopped reading still holds its subscription")
		}
		svc.hub.publish(Event{Type: EventProgress, Job: Job{ID: "j", State: StateRunning, Tested: i, Found: big}})
		time.Sleep(time.Millisecond)
	}
}
