package netproto

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"keysearch/internal/core"
	"keysearch/internal/cracker"
	"keysearch/internal/dispatch"
	"keysearch/internal/keyspace"
	"keysearch/internal/sim"
	"keysearch/internal/targetset"
	"keysearch/internal/telemetry"
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Name identifies this worker to the master. Rejoins are keyed by
	// name: a worker that reconnects under the same name resumes the
	// master-side identity it had before the connection broke.
	Name string
	// Workers is the local goroutine count (0 = NumCPU).
	Workers int
	// TuneStart is the first batch size the local tuning step tries
	// (0 = cracker.Tune's default).
	TuneStart uint64
	// WriteTimeout bounds every frame write (0 = 10s).
	WriteTimeout time.Duration
	// JoinTimeout bounds the registration handshake (0 = 30s).
	JoinTimeout time.Duration
	// ProgressBatch is the search granularity in keys — core's ChunkSize,
	// the one unit a search goroutine claims at a time (0 = core's
	// default: at most 16384, less when the interval is short enough
	// that every goroutine should still get a share). Progress marks,
	// shrink boundaries and cancellation all land on multiples of it.
	// Smaller batches mean finer steal splits at the cost of more
	// per-batch overhead.
	ProgressBatch uint64
	// Throttle parks a search goroutine this long after every batch it
	// completes (never during tuning, so the balance rule still sees the
	// true speed). A deliberately slowed worker is how the steal tests —
	// and operators rehearsing straggler policy — fake a failing node.
	Throttle time.Duration
	// Dialer, when non-nil, replaces the default TCP dialer in Dial and
	// DialRetry — the splice point for the chaos harness and for future
	// TLS transport.
	Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
	// Telemetry, when non-nil, receives the worker-side protocol metrics
	// (frames sent/received, pings answered, reconnect attempts) and is
	// threaded into the local search so core.tested / core.rate reflect
	// the candidates this worker evaluates.
	Telemetry *telemetry.Registry
}

func (cfg WorkerConfig) dial(ctx context.Context, addr string) (net.Conn, error) {
	if cfg.Dialer != nil {
		return cfg.Dialer(ctx, "tcp", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

func (cfg WorkerConfig) writeTimeout() time.Duration {
	if cfg.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return cfg.WriteTimeout
}

func (cfg WorkerConfig) joinTimeout() time.Duration {
	if cfg.JoinTimeout <= 0 {
		return 30 * time.Second
	}
	return cfg.JoinTimeout
}

// Test hooks, nil outside tests. They let the race tests park a
// goroutine at the exact point a historical interleaving bug lived:
// testHookSearchBegin fires on the read loop right after a search is
// accepted (busy and inflight set); testHookSearchDone fires on the
// search goroutine after the local search returns, before the
// result/requeue disposition is decided; testHookRequeueClaimed fires
// on the shutdown goroutine after it claims the in-flight interval,
// before the requeue frame is written.
// They are atomic because worker goroutines from one test (blocked in
// a teardown write, say) may still load a hook while the next test
// stores its own.
// Each hook receives the worker's name so a test can ignore firings
// from other tests' workers still winding down.
var (
	testHookSearchBegin    atomic.Pointer[func(worker string)]
	testHookSearchDone     atomic.Pointer[func(worker string)]
	testHookRequeueClaimed atomic.Pointer[func(worker string)]
	testHookTables         atomic.Pointer[func(worker string, specs, corpora int)]
)

// ServeConn runs the worker side of the protocol on an established
// connection: exchange hellos, then answer spec registrations, tune,
// search and ping requests until the connection closes or ctx is
// cancelled. Job specs arrive over MsgSpec and stay in the connection's
// table under their spec ID until a MsgForget drops them, so one
// connection serves any number of different jobs.
//
// Requests execute on a separate goroutine so the read loop keeps
// answering MsgPing with MsgPong while a long search occupies the cores —
// that is what distinguishes this worker from a dead one on the master's
// side. If ctx is cancelled while a search is in flight, the worker hands
// the interval back with MsgRequeue (best effort) before hanging up, so
// the master requeues it without waiting for a heartbeat timeout. The
// requeue decision and the search's own completion race is resolved
// under one lock: exactly one of MsgSearchResult and MsgRequeue leaves
// the worker for any accepted interval.
func ServeConn(ctx context.Context, conn net.Conn, cfg WorkerConfig) error {
	return serveConn(ctx, conn, cfg, nil)
}

func serveConn(ctx context.Context, conn net.Conn, cfg WorkerConfig, onReady func()) error {
	defer conn.Close()

	nt := newNetTelemetry(cfg.Telemetry)
	write := nt.writer(conn, cfg.writeTimeout())
	sendErr := func(err error) { _ = write(MsgError, []byte(err.Error())) }

	if err := write(MsgHello, EncodeHello(Hello{Version: Version, Name: cfg.Name})); err != nil {
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(cfg.joinTimeout()))
	t, payload, err := ReadFrame(conn)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	switch t {
	case MsgHello:
		ack, err := DecodeHello(payload)
		if err != nil {
			return err
		}
		if ack.Version != Version {
			return fmt.Errorf("netproto: version mismatch: master %d, worker %d", ack.Version, Version)
		}
	case MsgJob:
		// A v1 master sends the job at registration instead of acking the
		// hello; name the incompatibility rather than failing obscurely.
		return fmt.Errorf("netproto: master speaks protocol v1 (sent job at registration); this worker requires v%d", Version)
	case MsgError:
		return fmt.Errorf("netproto: master refused registration: %s", payload)
	default:
		return fmt.Errorf("netproto: expected handshake ack, got message type %d", t)
	}
	if onReady != nil {
		onReady()
	}

	// The per-connection tables: specs (cracker jobs by spec ID, Corpus
	// set, prepared), corpora (decoded target sets by content hash) and
	// asm (chunk assemblies feeding corpora). Only the read loop touches
	// them.
	specs := make(map[uint64]*cracker.Job)
	corpora := make(map[uint64]*targetset.Set)
	tables := func() {
		if hook := testHookTables.Load(); hook != nil {
			(*hook)(cfg.Name, len(specs), len(corpora))
		}
	}
	type corpusAsm struct {
		buf   []byte
		total uint32
	}
	asm := make(map[uint64]*corpusAsm)

	// st tracks the single in-flight request (the protocol is strict
	// request/response; pings are the only interleaved frames). The
	// in-flight interval is set in the same critical section that marks
	// the worker busy, and claimed — by exactly one of the shutdown path
	// and the search-completion path — under the same lock, so each
	// accepted interval gets exactly one disposition.
	var st struct {
		sync.Mutex
		busy     bool
		inflight *keyspace.Interval
		requeued bool       // shutdown claimed the interval; drop the result
		search   *core.Live // live search's handle, nil otherwise
		seq      uint64     // its MsgSearch sequence number
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-serveCtx.Done()
		if ctx.Err() == nil {
			return // normal return path, connection already going down
		}
		// Local shutdown: claim the in-flight interval (so a concurrently
		// completing search drops its result instead of double-reporting),
		// hand it back, then hang up.
		st.Lock()
		iv := st.inflight
		if iv != nil {
			st.requeued = true
			st.inflight = nil
		}
		st.Unlock()
		if hook := testHookRequeueClaimed.Load(); hook != nil {
			(*hook)(cfg.Name)
		}
		if iv != nil {
			_ = write(MsgRequeue, EncodeRequeue(Requeue{
				Start: iv.Start, End: iv.End, Reason: "worker shutting down",
			}))
		}
		conn.Close()
	}()

	for {
		t, payload, err := ReadFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err // connection closed: master is done with us
		}
		nt.recv.Inc()
		switch t {
		case MsgPing:
			hb, err := DecodeHeartbeat(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			if err := write(MsgPong, EncodeHeartbeat(hb)); err != nil {
				return err
			}
			nt.pongs.Inc()
		case MsgCorpus:
			ck, err := DecodeCorpusChunk(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			if _, ok := corpora[ck.ID]; ok {
				continue // already assembled and verified; re-sends are idempotent
			}
			a, ok := asm[ck.ID]
			if !ok {
				if ck.Total == 0 || ck.Total > targetset.MaxEncoded {
					sendErr(fmt.Errorf("netproto: corpus %016x: bad total %d", ck.ID, ck.Total))
					continue
				}
				a = &corpusAsm{buf: make([]byte, 0, ck.Total), total: ck.Total}
				asm[ck.ID] = a
			}
			// Chunks must tile the blob in order; anything else aborts the
			// assembly so the master's retry starts clean.
			if ck.Total != a.total || ck.Offset != uint32(len(a.buf)) {
				delete(asm, ck.ID)
				sendErr(fmt.Errorf("netproto: corpus %016x: chunk at offset %d does not extend assembly of %d/%d bytes",
					ck.ID, ck.Offset, len(a.buf), a.total))
				continue
			}
			a.buf = append(a.buf, ck.Data...)
			if uint32(len(a.buf)) < a.total {
				continue
			}
			delete(asm, ck.ID)
			if got := specHash(a.buf); got != ck.ID {
				sendErr(fmt.Errorf("netproto: corpus content hashes to %016x, chunks said %016x", got, ck.ID))
				continue
			}
			set, err := targetset.Decode(a.buf)
			if err != nil {
				sendErr(err)
				continue
			}
			corpora[ck.ID] = set
			tables()
		case MsgSpec:
			sf, err := DecodeSpec(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			job, err := sf.Spec.Build()
			if err != nil {
				sendErr(err)
				continue
			}
			if sf.Spec.CorpusID != 0 {
				set, ok := corpora[sf.Spec.CorpusID]
				if !ok {
					sendErr(fmt.Errorf("netproto: spec %016x references corpus %016x, not transferred on this connection", sf.ID, sf.Spec.CorpusID))
					continue
				}
				job.Corpus = set
			}
			if err := job.Prepare(); err != nil {
				sendErr(err)
				continue
			}
			specs[sf.ID] = job
			tables()
		case MsgForget:
			fg, err := DecodeForget(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			if job, ok := specs[fg.SpecID]; ok {
				delete(specs, fg.SpecID)
				named := job.Corpus == nil
				for _, j := range specs {
					named = named || j.Corpus == job.Corpus
				}
				if !named {
					maps.DeleteFunc(corpora, func(_ uint64, set *targetset.Set) bool { return set == job.Corpus })
				}
			}
			tables()
		case MsgTune:
			req, err := DecodeTuneRequest(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			job, ok := specs[req.SpecID]
			if !ok {
				sendErr(unknownSpec(req.SpecID))
				continue
			}
			st.Lock()
			if st.busy {
				st.Unlock()
				sendErr(errors.New("netproto: request while another is in flight"))
				continue
			}
			st.busy = true
			st.Unlock()
			go func() {
				res, err := tuneLocal(serveCtx, job, cfg)
				st.Lock()
				st.busy = false
				st.Unlock()
				if err != nil {
					sendErr(err)
					return
				}
				if err := write(MsgTuneResult, EncodeTuneResult(res)); err != nil {
					conn.Close()
				}
			}()
		case MsgSearch:
			req, err := DecodeSearch(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			job, ok := specs[req.SpecID]
			if !ok {
				sendErr(unknownSpec(req.SpecID))
				continue
			}
			iv := keyspace.Interval{Start: req.Start, End: req.End}
			st.Lock()
			if st.busy {
				st.Unlock()
				sendErr(errors.New("netproto: request while another is in flight"))
				continue
			}
			// busy and inflight are set together: from this instant a
			// cancellation finds the interval and requeues it — there is no
			// window where the worker is busy with nothing to hand back.
			// The live handle is installed in the same critical section,
			// so a MsgShrink can never race a window where the search is
			// accepted but untargetable.
			live := core.NewLive(iv, cfg.afterBatch(serveCtx, req.ProgressEvery, func(done uint64) {
				if write(MsgProgress, EncodeProgress(Progress{Seq: req.Seq, Done: done})) == nil {
					nt.progress.Inc()
				}
			}))
			st.busy = true
			st.inflight = &iv
			st.search, st.seq = live, req.Seq
			st.Unlock()
			if hook := testHookSearchBegin.Load(); hook != nil {
				(*hook)(cfg.Name)
			}
			go func() {
				res, err := searchLocal(serveCtx, job, iv, cfg, live)
				if hook := testHookSearchDone.Load(); hook != nil {
					(*hook)(cfg.Name)
				}
				st.Lock()
				requeued := st.requeued
				st.requeued = false
				st.busy = false
				st.inflight = nil
				st.search = nil
				st.Unlock()
				if requeued {
					return // the shutdown path already sent MsgRequeue
				}
				if err != nil {
					if serveCtx.Err() == nil {
						sendErr(err)
					}
					return
				}
				if err := write(MsgSearchResult, EncodeSearchResult(res)); err != nil {
					conn.Close()
				}
			}()
		case MsgShrink:
			sk, err := DecodeShrink(payload)
			if err != nil {
				sendErr(err)
				continue
			}
			st.Lock()
			live, seq := st.search, st.seq
			st.Unlock()
			ack := ShrinkAck{Seq: sk.Seq}
			if live != nil && seq == sk.Seq {
				ack.Keep, ack.OK = live.Shrink(sk.Keep)
			}
			if err := write(MsgShrinkAck, EncodeShrinkAck(ack)); err != nil {
				return err
			}
			if ack.OK {
				nt.shrinks.Inc()
			}
		default:
			sendErr(fmt.Errorf("netproto: unexpected message type %d", t))
		}
	}
}

func unknownSpec(id uint64) error {
	return fmt.Errorf("netproto: unknown spec %016x (not registered on this connection)", id)
}

func tuneLocal(ctx context.Context, job *cracker.Job, cfg WorkerConfig) (TuneResult, error) {
	tn, err := cracker.Tune(ctx, job, cfg.Workers, cfg.TuneStart)
	return TuneResult{MinBatch: tn.MinBatch, Throughput: tn.Throughput}, err
}

// searchLocal exhausts the interval up to live's (possibly shrunk) end:
// Tested is exactly that end, on a batch boundary or at the acked cut.
func searchLocal(ctx context.Context, job *cracker.Job, iv keyspace.Interval, cfg WorkerConfig, live *core.Live) (SearchResult, error) {
	rep, err := dispatch.SearchLocal(ctx, sim.Wall{}, job, iv,
		core.Options{Workers: cfg.Workers, ChunkSize: cfg.ProgressBatch, Live: live, Telemetry: cfg.Telemetry})
	if err != nil {
		return SearchResult{}, err
	}
	return SearchResult{Found: rep.Found, Tested: rep.Tested, Elapsed: rep.Elapsed}, nil
}

// afterBatch is what a search goroutine does between two batches: park for
// the throttle, then send the tested-prefix mark if the request's cadence
// has come round. Batches finish on several goroutines at once, so marks
// are sent under one lock and only ever upward — on the wire they stay
// monotonic and name fully-tested keys only.
func (cfg WorkerConfig) afterBatch(ctx context.Context, every time.Duration, send func(done uint64)) func(mark uint64) {
	var mu sync.Mutex
	sent, at := uint64(0), time.Now()
	return func(mark uint64) {
		if d := cfg.Throttle; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if every > 0 && mark > sent && time.Since(at) >= every {
			send(mark)
			sent, at = mark, time.Now()
		}
	}
}

// Dial connects to a master and serves until done.
func Dial(ctx context.Context, addr string, cfg WorkerConfig) error {
	conn, err := cfg.dial(ctx, addr)
	if err != nil {
		return err
	}
	return ServeConn(ctx, conn, cfg)
}

// DialRetry keeps a worker attached to a master across connection loss:
// dial, serve, and on failure re-dial with the policy's backoff. The
// attempt counter resets every time registration succeeds, so a
// long-lived worker survives any number of transient outages but gives
// up after MaxAttempts consecutive failures to (re)join.
func DialRetry(ctx context.Context, addr string, cfg WorkerConfig, policy RetryPolicy) error {
	attempt := 0
	var lastErr error
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		conn, err := cfg.dial(ctx, addr)
		if err == nil {
			err = serveConn(ctx, conn, cfg, func() { attempt = 0 })
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		attempt++
		if attempt >= policy.attempts() {
			return fmt.Errorf("netproto: worker %s giving up after %d attempts: %w", cfg.Name, attempt, lastErr)
		}
		cfg.Telemetry.Counter(telemetry.MetricNetRetries).Inc()
		if lastErr != nil {
			cfg.Telemetry.Emit(telemetry.EventRetry, cfg.Name, uint64(attempt), lastErr.Error())
		}
		if serr := policy.Sleep(ctx, attempt-1); serr != nil {
			return serr
		}
	}
}
