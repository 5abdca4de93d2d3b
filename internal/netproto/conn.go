package netproto

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"keysearch/internal/telemetry"
)

// wconn is one connection to a worker and its reader, which runs for the
// connection's life: pongs go to the ping clock, progress marks and
// shrink acks to the search in flight (a stale seq is inert), a reply to
// the one call waiting for it. A read error, an unknown frame type or a
// reply no call waits for kills the connection: a worker that answers
// what nobody asked cannot be believed.
type wconn struct {
	c     net.Conn
	write func(MsgType, []byte) error
	reply chan frame   // capacity 1: the waiting call's reply
	tick  *time.Ticker // the pinger's; nil with heartbeats off
	// life ends when the connection dies, and its cause says why: end is
	// kill's, and the first cause stands.
	life context.Context
	end  context.CancelCauseFunc

	mu sync.Mutex // guards the call and ping state below and the read deadline
	// calling marks a call waiting for its reply; seq names its search (0
	// for a tune: search seqs start at 1), onProgress takes the search's
	// marks and ack is the armed Shrink waiter. pinged is the last ping's
	// seq, sent at pingAt: its pong gives the round trip.
	calling    bool
	seq        uint64
	onProgress func(done uint64)
	ack        chan ShrinkAck
	pinged     uint64
	pingAt     time.Time

	// specSent maps each spec ID registered on the connection to the
	// corpus ID it names (0 = none), and forgets holds the sent specs no
	// longer held, for the next prelude; so specSent mirrors the worker's
	// tables once that lands (package doc). Guarded by the worker's cmu.
	specSent map[uint64]uint64
	forgets  map[uint64]uint64
}

// frame is one protocol message (type + payload).
type frame struct {
	t MsgType
	p []byte
}

// attach starts c's reader, and its pinger when heartbeats are on.
func (w *RemoteWorker) attach(c net.Conn) *wconn {
	wc := &wconn{c: c, write: w.tel.writer(c, w.opts.WriteTimeout), reply: make(chan frame, 1),
		specSent: make(map[uint64]uint64), forgets: make(map[uint64]uint64)}
	wc.life, wc.end = context.WithCancelCause(context.Background())
	go w.read(wc)
	if w.opts.Heartbeat > 0 {
		tick := time.NewTicker(w.opts.Heartbeat)
		wc.tick = tick
		go w.heartbeat(wc, tick)
	}
	return wc
}

// kill ends wc's life for err (the first cause stands) and closes it.
func (w *RemoteWorker) kill(wc *wconn, err error) {
	wc.end(err)
	w.drop(wc.c)
}

// read is wc's reader (see wconn). Under wc.mu it takes the call state a
// frame needs, ends the call on its reply, and restarts the read deadline
// while the call goes on: a busy worker keeps answering pings, a dead one
// goes silent.
func (w *RemoteWorker) read(wc *wconn) {
	for {
		t, p, err := ReadFrame(wc.c)
		if err != nil {
			w.kill(wc, fmt.Errorf("netproto: %s: %w", w.name, err))
			return
		}
		w.tel.recv.Inc()
		reply := t == MsgTuneResult || t == MsgSearchResult || t == MsgError || t == MsgRequeue
		wc.mu.Lock()
		calling, seq, onProgress, ack, pinged, pingAt := wc.calling, wc.seq, wc.onProgress, wc.ack, wc.pinged, wc.pingAt
		if reply {
			wc.calling, wc.seq, wc.onProgress, wc.ack = false, 0, nil, nil
		}
		if calling && w.opts.HeartbeatTimeout > 0 {
			deadline := time.Time{}
			if !reply {
				deadline = time.Now().Add(w.opts.HeartbeatTimeout)
			}
			_ = wc.c.SetReadDeadline(deadline)
		}
		wc.mu.Unlock()
		switch {
		case reply && calling:
			select {
			case ack <- ShrinkAck{}: // the search is over: a waiting Shrink is refused
			default: // none waits, or its ack is already there
			}
			wc.reply <- frame{t, p}
		case reply:
			w.kill(wc, fmt.Errorf("netproto: %s: reply type %d with no call waiting", w.name, t))
			return
		case t == MsgPong:
			w.tel.pongs.Inc()
			if hb, derr := DecodeHeartbeat(p); derr == nil && hb.Seq == pinged {
				rtt := time.Since(pingAt)
				w.tel.rtt.ObserveDuration(rtt)
				w.tel.reg.Emit(telemetry.EventHeartbeat, w.name, hb.Seq, rtt.String())
			}
		case t == MsgProgress:
			if pg, derr := DecodeProgress(p); derr == nil && calling && seq != 0 && pg.Seq == seq {
				w.tel.progress.Inc()
				if onProgress != nil {
					onProgress(pg.Done)
				}
			}
		case t == MsgShrinkAck:
			if a, derr := DecodeShrinkAck(p); derr == nil && a.Seq == seq {
				select {
				case ack <- a:
				default:
				}
			}
		default:
			w.kill(wc, fmt.Errorf("netproto: %s: unexpected response type %d", w.name, t))
			return
		}
	}
}

// heartbeat pings on each tick while a call is in flight on wc.
func (w *RemoteWorker) heartbeat(wc *wconn, tick *time.Ticker) {
	defer tick.Stop()
	for {
		select {
		case <-wc.life.Done():
			return
		case <-tick.C:
		}
		wc.mu.Lock()
		calling := wc.calling
		if calling {
			wc.pinged++
			wc.pingAt = time.Now()
		}
		seq := wc.pinged
		wc.mu.Unlock()
		if !calling {
			continue
		}
		if err := wc.write(MsgPing, EncodeHeartbeat(Heartbeat{Seq: seq})); err != nil {
			w.kill(wc, fmt.Errorf("netproto: %s: %w", w.name, err))
			return
		}
		w.tel.pings.Inc()
	}
}

// exchange puts a call in flight on wc, searching seq (0 for a tune): the
// read deadline is armed and the pinger's clock restarted, so a call
// shorter than the heartbeat sends no ping. It writes the prelude frames
// and the request and waits for the reply, wc's death or ctx. A
// connection found dead, or dying under a write, returns its death's
// error. A cancelled search asks the worker to stop at its next batch
// boundary and waits one ackWait for the truncated reply, which leaves wc
// at a frame boundary; any other cancellation returns ctx's error, and
// the caller discards wc.
func (w *RemoteWorker) exchange(ctx context.Context, wc *wconn, prelude []frame, req MsgType, payload []byte, seq uint64, onProgress func(done uint64)) (frame, error) {
	if wc.life.Err() != nil {
		return frame{}, context.Cause(wc.life)
	}
	wc.mu.Lock()
	wc.calling, wc.seq, wc.onProgress = true, seq, onProgress
	if w.opts.HeartbeatTimeout > 0 {
		_ = wc.c.SetReadDeadline(time.Now().Add(w.opts.HeartbeatTimeout))
	}
	wc.mu.Unlock()
	if wc.tick != nil {
		wc.tick.Reset(w.opts.Heartbeat)
	}
	var err error
	for _, f := range prelude {
		if err = wc.write(f.t, f.p); err != nil {
			break
		}
	}
	if err == nil {
		err = wc.write(req, payload)
	}
	if err != nil {
		w.kill(wc, fmt.Errorf("netproto: %s: %w", w.name, err))
		return frame{}, context.Cause(wc.life)
	}
	select {
	case f := <-wc.reply:
		return f, nil
	case <-wc.life.Done():
		select {
		case f := <-wc.reply: // it answered before it died
			return f, nil
		default:
			return frame{}, context.Cause(wc.life)
		}
	case <-ctx.Done():
	}
	if seq != 0 && wc.write(MsgShrink, EncodeShrink(Shrink{Seq: seq, Keep: 0})) == nil {
		t := time.NewTimer(w.opts.ackWait())
		defer t.Stop()
		select {
		case f := <-wc.reply:
			return f, nil
		case <-wc.life.Done():
		case <-t.C:
		}
	}
	return frame{}, ctx.Err()
}
