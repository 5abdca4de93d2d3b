package netproto

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/dispatch"
	"keysearch/internal/jobs"
	"keysearch/internal/keyspace"
	"keysearch/internal/telemetry"
)

// ErrMasterClosed is returned by AcceptWorkers and pending worker calls
// when Master.Close tears the master down.
var ErrMasterClosed = errors.New("netproto: master closed")

// RemoteError is an application-level failure reported by a worker over
// MsgError: the connection is healthy and the call is NOT retried (the
// same request would fail the same way).
type RemoteError struct {
	Worker string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netproto: %s: remote error: %s", e.Worker, e.Msg)
}

// RequeueError reports that a worker handed its interval back with
// MsgRequeue instead of finishing it. The master treats it like a
// transport failure (the retry/backoff window gives the worker a chance
// to rejoin), so the job service requeues the lease either way.
type RequeueError struct {
	Worker string
	Reason string
}

func (e *RequeueError) Error() string {
	return fmt.Sprintf("netproto: %s: worker requeued its interval: %s", e.Worker, e.Reason)
}

// MasterOptions tunes the master's failure model: a dead worker is
// detected within roughly HeartbeatTimeout and its interval requeued.
type MasterOptions struct {
	// Heartbeat is the ping interval while a call is in flight (0 = 2s).
	// Exactly -1 disables heartbeats — and with them, unless
	// HeartbeatTimeout is set explicitly, the per-frame read deadlines —
	// which is how tests and debug rigs keep calls alive under
	// breakpoints. Any other negative value is a configuration error and
	// NewMaster rejects it.
	Heartbeat time.Duration
	// HeartbeatTimeout is how long the master waits for ANY frame (pong
	// or result) before declaring the worker dead (0 = 4×Heartbeat).
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds every frame write (0 = 10s).
	WriteTimeout time.Duration
	// Retry governs failed worker calls: each backoff doubles as a
	// reconnection window in which a re-registering worker (same name)
	// picks its calls back up on the fresh connection.
	Retry RetryPolicy
	// PendingBuffer caps how many registered-but-uncollected workers the
	// master holds for AcceptWorkers before refusing new registrations
	// (0 = 64).
	PendingBuffer int
	// Telemetry, when non-nil, receives the master-side protocol metrics:
	// frames sent/received, pings/pongs and their round trips, call
	// retries, rejoins and requeues, plus join/retry/reconnect events
	// (see internal/telemetry's names.go).
	Telemetry *telemetry.Registry
}

func (o MasterOptions) withDefaults() MasterOptions {
	if o.Heartbeat == 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 && o.Heartbeat > 0 {
		o.HeartbeatTimeout = 4 * o.Heartbeat
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.PendingBuffer <= 0 {
		o.PendingBuffer = 64
	}
	return o
}

// ackWait bounds the wait for a shrink's answer: a heartbeat timeout, or
// a write timeout with heartbeats off.
func (o MasterOptions) ackWait() time.Duration {
	if o.HeartbeatTimeout > 0 {
		return o.HeartbeatTimeout
	}
	return o.WriteTimeout
}

// testHookPendingFull, nil outside tests, fires on the registration
// goroutine when the pending buffer is full, before the worker entry is
// torn down — the window in which a concurrent rejoin can offer a
// replacement connection.
var testHookPendingFull atomic.Pointer[func(worker string)]

// Master accepts worker connections and exposes each as a RemoteWorker:
// a spec-carrying proxy that any number of jobs can call into. Executor
// wraps one as a jobs.Executor, which is how the job service — the one
// scheduler that owns TCP workers — drives the network exactly like
// local executors (the paper's hierarchy-agnostic pattern).
//
// The accept loop runs for the master's whole life: a worker that
// re-registers under a name seen before is a REJOIN, and its fresh
// connection replaces the broken one inside the existing RemoteWorker
// rather than surfacing as a new worker.
type Master struct {
	ln      net.Listener
	opts    MasterOptions
	pending chan *RemoteWorker
	regErr  chan error
	done    chan struct{}

	tel *netTelemetry

	mu        sync.Mutex
	closed    bool
	acceptErr error
	workers   map[string]*RemoteWorker
	conns     map[net.Conn]struct{}
}

// NewMaster listens on addr (e.g. "127.0.0.1:0") for workers. Job specs
// are not fixed at listen time: each call names its spec, and the master
// registers specs on worker connections as needed. At most one
// MasterOptions may be passed; omitting it selects the defaults
// documented on MasterOptions.
func NewMaster(addr string, opts ...MasterOptions) (*Master, error) {
	var o MasterOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Heartbeat < 0 && o.Heartbeat != -1 {
		return nil, fmt.Errorf("netproto: MasterOptions.Heartbeat %v: the only negative value is -1 (disable heartbeats)", o.Heartbeat)
	}
	o = o.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &Master{
		ln:      ln,
		opts:    o,
		pending: make(chan *RemoteWorker, o.PendingBuffer),
		regErr:  make(chan error, 8),
		done:    make(chan struct{}),
		workers: make(map[string]*RemoteWorker),
		conns:   make(map[net.Conn]struct{}),
		tel:     newNetTelemetry(o.Telemetry),
	}
	go m.acceptLoop()
	return m, nil
}

// Addr returns the listen address workers should dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Close stops accepting workers, closes every accepted worker connection
// and fails pending AcceptWorkers calls and in-flight worker calls with
// ErrMasterClosed.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	workers := make([]*RemoteWorker, 0, len(m.workers))
	for _, w := range m.workers {
		workers = append(workers, w)
	}
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()

	err := m.ln.Close()
	for _, w := range workers {
		w.shutdown()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

func (m *Master) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			m.mu.Lock()
			if m.closed {
				m.acceptErr = ErrMasterClosed
			} else {
				m.acceptErr = err
			}
			m.mu.Unlock()
			close(m.done)
			return
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			continue
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		go m.register(conn)
	}
}

func (m *Master) dropConn(c net.Conn) {
	_ = c.Close()
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// register runs the handshake on a fresh connection: hello in, hello ack
// out, then either bind the connection into an existing (rejoining)
// worker or surface a brand-new worker to AcceptWorkers. Registration
// failures go to the regErr channel so AcceptWorkers can report them,
// but never stop the accept loop.
func (m *Master) register(conn net.Conn) {
	fail := func(err error) {
		m.dropConn(conn)
		select {
		case m.regErr <- err:
		default:
		}
	}
	write := m.tel.writer(conn, m.opts.WriteTimeout)

	_ = conn.SetReadDeadline(time.Now().Add(m.opts.WriteTimeout))
	t, payload, err := ReadFrame(conn)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		fail(err)
		return
	}
	m.tel.recv.Inc()
	if t != MsgHello {
		fail(fmt.Errorf("netproto: expected hello, got type %d", t))
		return
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		fail(err)
		return
	}
	if hello.Version != Version {
		err := fmt.Errorf("netproto: version mismatch: worker %d, master %d", hello.Version, Version)
		_ = write(MsgError, []byte(err.Error())) // tell the v1 worker why before hanging up
		fail(err)
		return
	}
	if err := write(MsgHello, EncodeHello(Hello{Version: Version, Name: "master"})); err != nil {
		fail(err)
		return
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.dropConn(conn)
		return
	}
	if w, ok := m.workers[hello.Name]; ok {
		m.mu.Unlock()
		w.offerConn(conn) // rejoin: hand the fresh conn to the existing worker
		m.tel.reconnects.Inc()
		m.tel.reg.Emit(telemetry.EventReconnect, hello.Name, 0, "rejoined by name")
		return
	}
	w := &RemoteWorker{
		holds:   make(map[uint64]int),
		name:    hello.Name,
		opts:    m.opts,
		tel:     m.tel,
		newConn: make(chan *wconn, 1),
		closeCh: make(chan struct{}),
		drop:    m.dropConn,
	}
	w.conn = w.attach(conn)
	m.workers[hello.Name] = w
	m.mu.Unlock()
	m.tel.reg.Emit(telemetry.EventJoin, hello.Name, 0, "registered")

	select {
	case m.pending <- w:
	default:
		if hook := testHookPendingFull.Load(); hook != nil {
			(*hook)(hello.Name)
		}
		// Nobody is collecting workers and the buffer is full; drop the
		// registration so the worker redials later. A concurrent rejoin
		// may already have found this worker in the map and offered it a
		// replacement connection, so tear down in an order that cannot
		// orphan a live conn: only delete the entry if it is still ours,
		// mark the worker closed (offerConn refuses new conns from here
		// on), then drain the one conn that may have been enqueued first.
		m.mu.Lock()
		if m.workers[hello.Name] == w {
			delete(m.workers, hello.Name)
		}
		m.mu.Unlock()
		w.shutdown()
		select {
		case old := <-w.newConn:
			m.dropConn(old.c)
		default:
		}
		m.dropConn(conn)
	}
}

// AcceptWorkers waits for n workers to register and returns them. A
// registration failure (bad hello, version mismatch) is returned as the
// error; Close unblocks the call with ErrMasterClosed.
func (m *Master) AcceptWorkers(ctx context.Context, n int) ([]*RemoteWorker, error) {
	var workers []*RemoteWorker
	for len(workers) < n {
		select {
		case <-ctx.Done():
			return workers, ctx.Err()
		case <-m.done:
			m.mu.Lock()
			err := m.acceptErr
			m.mu.Unlock()
			return workers, err
		case err := <-m.regErr:
			return workers, err
		case w := <-m.pending:
			workers = append(workers, w)
		}
	}
	return workers, nil
}

// RemoteWorker proxies calls to one worker process over its connection.
// Calls are serialized: the protocol is strict request/response, with
// MsgPing / MsgPong liveness frames interleaved while a call is in
// flight. Each connection has one reader for its life (see wconn), so no
// call takes a frame sent between calls for its answer. A failed call
// closes the connection, waits out the retry backoff for the worker to
// re-register, and retries on the replacement connection.
//
// Every call names a JobSpec; the proxy tracks which spec IDs the
// CURRENT connection holds and sends a MsgSpec registration ahead of the
// first call that references a new one, and a MsgForget once a spec has
// no holder left. A replacement connection after a reconnect starts with
// an empty table, so specs are re-sent transparently and rejoin works
// mid-job for any number of jobs.
type RemoteWorker struct {
	name string
	opts MasterOptions
	tel  *netTelemetry
	drop func(net.Conn)

	// searchSeq allocates sequence numbers naming live searches (never
	// reused, so a stale MsgProgress or MsgShrinkAck from an earlier
	// search can always be told apart).
	searchSeq atomic.Uint64

	mu sync.Mutex // serializes calls

	cmu     sync.Mutex // guards conn, closed, holds and the connections' spec tables
	conn    *wconn     // the connection calls use; once dead, the next one offered replaces it
	newConn chan *wconn
	closeCh chan struct{}
	closed  bool

	// holds counts each spec ID's holders: calls in flight and live jobs.
	holds map[uint64]int
}

// Name identifies the remote worker.
func (w *RemoteWorker) Name() string { return w.name }

// shutdown (master closing) aborts waits for reconnection.
func (w *RemoteWorker) shutdown() {
	w.cmu.Lock()
	if !w.closed {
		w.closed = true
		close(w.closeCh)
	}
	w.cmu.Unlock()
}

// offerConn installs a replacement connection from a rejoining worker.
//
// The newConn send cannot block: the channel has capacity 1, every sender
// holds cmu, and the select just above drained it under that same lock.
//
//keyvet:allow lockorder
func (w *RemoteWorker) offerConn(c net.Conn) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if w.closed {
		c.Close()
		return
	}
	if w.conn != nil {
		// The old conn is stale the moment its worker re-registered.
		w.kill(w.conn, fmt.Errorf("netproto: %s: connection replaced by a rejoin", w.name))
	}
	select {
	case old := <-w.newConn:
		w.drop(old.c)
	default:
	}
	w.newConn <- w.attach(c)
}

// takeConn returns the connection to call on, waiting up to wait for a
// rejoining worker to supply one; if none comes, the worker is gone. A
// dead connection nobody replaced is returned: the call on it is one
// failed attempt.
func (w *RemoteWorker) takeConn(ctx context.Context, wait time.Duration) (*wconn, error) {
	w.cmu.Lock()
	wc := w.conn
	if wc == nil || wc.life.Err() != nil {
		select {
		case wc = <-w.newConn:
			w.conn = wc
		default:
		}
	}
	closed := w.closed
	w.cmu.Unlock()
	if closed {
		return nil, ErrMasterClosed
	}
	if wc != nil {
		return wc, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case wc = <-w.newConn:
		w.cmu.Lock()
		w.conn = wc
		w.cmu.Unlock()
		return wc, nil
	case <-timer.C:
		return nil, fmt.Errorf("netproto: %s: no connection (worker did not rejoin): %w", w.name, jobs.ErrExecutorGone)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-w.closeCh:
		return nil, ErrMasterClosed
	}
}

// discardConn closes a failed connection for err; the next call waits
// for a replacement.
func (w *RemoteWorker) discardConn(wc *wconn, err error) {
	w.kill(wc, err)
	w.cmu.Lock()
	if w.conn == wc {
		w.conn = nil
	}
	w.cmu.Unlock()
}

// hold counts a holder of spec id. A forget still queued for it is
// withdrawn: the worker holds the spec until the forget is sent.
func (w *RemoteWorker) hold(id uint64) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	w.holds[id]++
	if wc := w.conn; wc != nil {
		if c, ok := wc.forgets[id]; ok {
			delete(wc.forgets, id)
			wc.specSent[id] = c
		}
	}
}

// unhold lets go of spec id. After its last holder, a spec the worker
// holds leaves specSent and is queued to be forgotten.
func (w *RemoteWorker) unhold(id uint64) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if w.holds[id]--; w.holds[id] > 0 {
		return
	}
	delete(w.holds, id)
	if wc := w.conn; wc != nil {
		if c, sent := wc.specSent[id]; sent {
			delete(wc.specSent, id)
			wc.forgets[id] = c
		}
	}
}

// prelude returns the frames wc needs ahead of a call against spec: the
// queued forgets, then the spec registration if wc lacks it, after its
// corpus if no spec there names that. specSent counts them delivered at
// once: any path where they might not be discards wc. registers reports
// frames the worker may refuse (all but the forgets).
func (w *RemoteWorker) prelude(wc *wconn, spec JobSpec, id uint64, corpus []byte) (frames []frame, registers bool) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for fid := range wc.forgets {
		frames = append(frames, frame{t: MsgForget, p: EncodeForget(Forget{SpecID: fid})})
	}
	clear(wc.forgets)
	forgets := len(frames)
	if _, ok := wc.specSent[id]; !ok {
		if spec.CorpusID != 0 && !slices.Contains(slices.Collect(maps.Values(wc.specSent)), spec.CorpusID) {
			for _, p := range CorpusFrames(corpus) {
				frames = append(frames, frame{t: MsgCorpus, p: p})
			}
		}
		frames = append(frames, frame{t: MsgSpec, p: EncodeSpec(spec)})
		wc.specSent[id] = spec.CorpusID
	}
	return frames, len(frames) > forgets
}

// NewSearchSeq allocates a worker-lifetime-unique sequence number naming
// one live search, so Shrink can address it while it runs. Allocate the
// seq before starting the search; the same seq stays valid across the
// call's internal reconnect retries.
func (w *RemoteWorker) NewSearchSeq() uint64 { return w.searchSeq.Add(1) }

// Shrink asks the active search — which must carry seq — to stop at key
// offset keep (from its interval start); keep = 0 cancels at the next
// batch boundary. It returns the effective boundary the worker committed
// to, which is ≥ keep when the worker had already tested past the
// requested point, and ok = false if the search could not be shrunk (no
// such search in flight, the worker predates the shrink protocol, the
// search already ran past its end, or the ack timed out) — in which case
// the search is unaffected and still owns its full interval.
//
// Shrink holds no RemoteWorker locks across the wait, so it is safe to
// call from a scheduler thread while the search call blocks elsewhere.
func (w *RemoteWorker) Shrink(ctx context.Context, seq, keep uint64) (uint64, bool) {
	w.cmu.Lock()
	wc := w.conn
	w.cmu.Unlock()
	if wc == nil || seq == 0 {
		return 0, false
	}
	ch := make(chan ShrinkAck, 1)
	wc.mu.Lock()
	armed := wc.calling && wc.seq == seq && wc.ack == nil // none in flight already
	if armed {
		wc.ack = ch
	}
	wc.mu.Unlock()
	if !armed {
		return 0, false
	}
	defer func() {
		wc.mu.Lock()
		if wc.ack == ch {
			wc.ack = nil
		}
		wc.mu.Unlock()
	}()
	if wc.write(MsgShrink, EncodeShrink(Shrink{Seq: seq, Keep: keep})) != nil {
		return 0, false
	}
	timer := time.NewTimer(w.opts.ackWait())
	defer timer.Stop()
	select {
	case ack := <-ch:
		if !ack.OK {
			return ack.Keep, false
		}
		w.tel.shrinks.Inc()
		return ack.Keep, true
	case <-wc.life.Done():
	case <-timer.C:
	case <-ctx.Done():
	}
	return 0, false
}

// TuneSpec runs the tuning step remotely against the given spec.
func (w *RemoteWorker) TuneSpec(ctx context.Context, spec JobSpec) (core.Tuning, error) {
	payload, err := w.call(ctx, spec, nil, MsgTune, EncodeTuneRequest(TuneRequest{SpecID: SpecID(spec)}), MsgTuneResult, 0, nil)
	if err != nil {
		return core.Tuning{}, err
	}
	res, err := DecodeTuneResult(payload)
	if err != nil {
		return core.Tuning{}, err
	}
	return core.Tuning{MinBatch: res.MinBatch, Throughput: res.Throughput}, nil
}

// SearchSpec runs an interval remotely against the given spec, which
// names no corpus.
func (w *RemoteWorker) SearchSpec(ctx context.Context, spec JobSpec, iv keyspace.Interval) (*dispatch.Report, error) {
	return w.SearchSpecLive(ctx, spec, nil, iv, w.NewSearchSeq(), 0, nil)
}

// SearchSpecLive is SearchSpec with the encoded corpus spec.CorpusID
// names (nil when it names none) and the live-search hooks of protocol v4:
// the worker reports its tested-up-to mark roughly every progressEvery of
// search time (0 disables the marks), and the search answers to
// Shrink(seq, ...) while it runs. onProgress is invoked on the
// connection's reader — it must return quickly and must not call back
// into this RemoteWorker. Cancelling ctx mid-search asks the worker to
// stop at the next batch boundary and drains its truncated result, so
// the connection survives cancellation without a reconnect cycle.
func (w *RemoteWorker) SearchSpecLive(ctx context.Context, spec JobSpec, corpus []byte, iv keyspace.Interval, seq uint64, progressEvery time.Duration, onProgress func(done uint64)) (*dispatch.Report, error) {
	req := SearchRequest{SpecID: SpecID(spec), Seq: seq, ProgressEvery: progressEvery, Start: iv.Start, End: iv.End}
	payload, err := w.call(ctx, spec, corpus, MsgSearch, EncodeSearch(req), MsgSearchResult, seq, onProgress)
	if err != nil {
		return nil, err
	}
	res, err := DecodeSearchResult(payload)
	if err != nil {
		return nil, err
	}
	return &dispatch.Report{Found: res.Found, Tested: res.Tested, Elapsed: res.Elapsed}, nil
}

// call sends a request and awaits the matching response, retrying per the
// policy on transport failures; it holds spec while it runs, and corpus
// is the encoding spec.CorpusID names. seq names a search (0 for a tune).
// Each backoff window doubles as a rejoin window: if the worker
// re-registers in time, the retry lands on the new connection — with the
// spec re-registered first, since the fresh connection's table is empty.
// A RemoteError is returned immediately (the connection is fine, the
// request is not). When the last window passes with no connection, the
// error wraps jobs.ErrExecutorGone.
//
// w.mu is the per-worker RPC serializer: holding it across the
// backoff/rejoin wait IS the contract — concurrent calls queue behind it
// rather than interleave frames on one connection.
//
//keyvet:allow lockorder
func (w *RemoteWorker) call(ctx context.Context, spec JobSpec, corpus []byte, req MsgType, payload []byte, want MsgType, seq uint64, onProgress func(done uint64)) ([]byte, error) {
	if spec.CorpusID != 0 && corpus == nil {
		return nil, fmt.Errorf("netproto: %s: spec references corpus %016x, but the call carries no corpus", w.name, spec.CorpusID)
	}
	id := SpecID(spec)
	w.hold(id)
	defer w.unhold(id)
	w.mu.Lock()
	defer w.mu.Unlock()

	var lastErr error
	var gone error // set while the latest attempt found no connection
	for attempt := 0; attempt < w.opts.Retry.attempts(); attempt++ {
		if attempt > 0 {
			w.tel.retries.Inc()
			w.tel.reg.Emit(telemetry.EventRetry, w.name, uint64(attempt), lastErr.Error())
		}
		wc, err := w.takeConn(ctx, w.opts.Retry.Backoff(attempt))
		if err != nil {
			if errors.Is(err, ErrMasterClosed) || ctx.Err() != nil {
				return nil, err
			}
			if lastErr == nil {
				lastErr = err
			}
			gone = err
			continue
		}
		gone = nil
		prelude, registers := w.prelude(wc, spec, id, corpus)
		f, err := w.exchange(ctx, wc, prelude, req, payload, seq, onProgress)
		if err == nil {
			if ctx.Err() != nil && (f.t == want || f.t == MsgError && seq != 0) {
				// The reply answers a cancelled call: the worker took the
				// prelude and the call, so its tables are current and the
				// connection, at a frame boundary, stays.
				return nil, ctx.Err()
			}
			switch f.t {
			case want:
				return f.p, nil
			case MsgError:
				err = &RemoteError{Worker: w.name, Msg: string(f.p)}
				if registers {
					// The error may answer a prelude frame rather than the
					// request itself, in which case a second error frame for
					// the request is still in flight; drop the connection
					// rather than have its reader fail it.
					w.discardConn(wc, err)
				}
				return nil, err
			case MsgRequeue:
				rq, derr := DecodeRequeue(f.p)
				if derr != nil {
					err = fmt.Errorf("netproto: %s: bad requeue: %w", w.name, derr)
					break
				}
				w.tel.requeues.Inc()
				w.tel.reg.Emit(telemetry.EventRequeue, w.name, 0, rq.Reason)
				err = &RequeueError{Worker: w.name, Reason: rq.Reason}
			default:
				err = fmt.Errorf("netproto: %s: unexpected response type %d", w.name, f.t)
			}
		}
		w.discardConn(wc, err)
		lastErr = err
		if ctx.Err() != nil {
			return nil, err
		}
	}
	if gone != nil && gone != lastErr {
		// The worker failed and then did not rejoin: say both.
		return nil, fmt.Errorf("%w (after %w)", gone, lastErr)
	}
	return nil, lastErr
}
