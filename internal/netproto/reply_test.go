package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
)

// fakeKeyworker plays a v5 keyworker over raw TCP: it registers under
// name, takes the prelude frames silently and answers each search with a
// report that tests its whole interval — the first search twice when
// twice is set. When the master hangs up it signals hungUp and, with
// rejoin set, registers again under the same name.
type fakeKeyworker struct {
	addr, name    string
	twice, rejoin bool
	hungUp        chan struct{}
	conns         chan net.Conn // each connection, once registered
}

func (f *fakeKeyworker) run() {
	searches := 0
	for {
		conn, err := dialHello(f.addr, f.name)
		if err != nil {
			return
		}
		f.conns <- conn
		for {
			t, p, err := ReadFrame(conn)
			if err != nil {
				break
			}
			if t != MsgSearch {
				continue
			}
			req, err := DecodeSearch(p)
			if err != nil {
				break
			}
			n, _ := keyspace.Interval{Start: req.Start, End: req.End}.Len64()
			searches++
			answers := 1
			if f.twice && searches == 1 {
				answers = 2
			}
			for ; answers > 0; answers-- {
				if WriteFrame(conn, MsgSearchResult, EncodeSearchResult(SearchResult{Tested: n})) != nil {
					break
				}
			}
		}
		conn.Close()
		f.hungUp <- struct{}{}
		if !f.rejoin {
			return
		}
	}
}

// dialHello dials the master and completes the handshake under name.
func dialHello(addr, name string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, MsgHello, EncodeHello(Hello{Version: Version, Name: name})); err != nil {
		conn.Close()
		return nil, err
	}
	if t, _, err := ReadFrame(conn); err != nil || t != MsgHello {
		conn.Close()
		return nil, fmt.Errorf("no hello ack: type %d, %v", t, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// TestUnaskedReplyFailsClosed: a reply no call asked for kills its
// connection instead of answering the next call. The first search, over
// [0,10), is answered with Tested 10; then a second report with Tested 10
// arrives unasked — right behind the first ("answered twice") or sent
// while no call is in flight ("between calls"). The next search, over
// [10,110), must never return it: it lands on the rejoined connection,
// or, when the worker does not come back, fails wrapping
// jobs.ErrExecutorGone.
func TestUnaskedReplyFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name          string
		twice, rejoin bool
	}{
		{"answered twice", true, true},
		{"between calls", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMaster("127.0.0.1:0", MasterOptions{Heartbeat: -1,
				Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			// Buffers above the two connections a subtest makes and the
			// redial after Close, so the fake never blocks on the test.
			f := &fakeKeyworker{addr: m.Addr(), name: "unasked", twice: tc.twice, rejoin: tc.rejoin,
				hungUp: make(chan struct{}, 4), conns: make(chan net.Conn, 4)}
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.run()
			}()
			defer func() {
				m.Close()
				<-done
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ws, err := m.AcceptWorkers(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			w, conn := ws[0], <-f.conns
			spec := testJob(t, "zz")
			if rep, err := w.SearchSpec(ctx, spec, keyspace.NewInterval(0, 10)); err != nil || rep.Tested != 10 {
				t.Fatalf("first search: %+v, %v", rep, err)
			}
			if !tc.twice {
				if err := WriteFrame(conn, MsgSearchResult, EncodeSearchResult(SearchResult{Tested: 10})); err != nil {
					t.Fatal(err)
				}
			}
			// The master hangs up on the unasked report, and the worker
			// may rejoin; wait for both, boundedly.
			select {
			case <-f.hungUp:
			case <-time.After(2 * time.Second):
			}
			if tc.rejoin {
				select {
				case <-f.conns:
				case <-time.After(2 * time.Second):
				}
			}
			rep, err := w.SearchSpec(ctx, spec, keyspace.NewInterval(10, 110))
			switch {
			case err == nil && rep.Tested == 10:
				t.Fatal("the search over [10,110) returned the unasked report, Tested 10")
			case tc.rejoin && (err != nil || rep.Tested != 100):
				t.Fatalf("search over [10,110) on the rejoined connection: %+v, %v; want Tested 100", rep, err)
			case !tc.rejoin && !errors.Is(err, jobs.ErrExecutorGone):
				t.Fatalf("search over [10,110) with no rejoin: %+v, %v; want an error wrapping jobs.ErrExecutorGone", rep, err)
			}
		})
	}
}
