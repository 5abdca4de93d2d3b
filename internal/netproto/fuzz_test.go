package netproto

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/big"
	"testing"

	"keysearch/internal/core"
	"keysearch/internal/keyspace"
)

// FuzzReadFrame: arbitrary bytes must never panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	good := func(t MsgType, payload []byte) []byte {
		var buf bytes.Buffer
		_ = WriteFrame(&buf, t, payload)
		return buf.Bytes()
	}
	f.Add(good(MsgHello, EncodeHello(Hello{Version: 1, Name: "w"})))
	f.Add(good(MsgSearch, []byte{1, 2, 3}))
	f.Add(good(MsgPing, EncodeHeartbeat(Heartbeat{Seq: 7})))
	f.Add(good(MsgPong, EncodeHeartbeat(Heartbeat{Seq: ^uint64(0)})))
	f.Add(good(MsgRequeue, bigRequeue(big.NewInt(1<<40), new(big.Int).Lsh(big.NewInt(1), 200), "worker shutting down")))
	f.Add(good(MsgSpec, EncodeSpec(JobSpec{Charset: "ab", MinLen: 1, MaxLen: 2})))
	f.Add(good(MsgTune, EncodeTuneRequest(TuneRequest{SpecID: 0xdeadbeef})))
	f.Add(good(MsgCorpus, EncodeCorpusChunk(CorpusChunk{ID: 3, Total: 5, Offset: 0, Data: []byte("abcde")})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{})
	// Truncated heartbeat (claims 8 bytes, carries 3).
	f.Add([]byte{0, 0, 0, 8, byte(MsgPing), 1, 2, 3})
	// Requeue whose inner length prefix overruns the frame.
	f.Add([]byte{0, 0, 0, 5, byte(MsgRequeue), 0xff, 0xff, 0xff, 0xff, 0})
	f.Add(good(MsgForget, EncodeForget(Forget{SpecID: 0xfeedface})))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed frame must survive decode attempts without
		// panicking, whatever its type claims.
		switch typ {
		case MsgHello:
			_, _ = DecodeHello(payload)
		case MsgJob:
			_, _ = DecodeJob(payload)
		case MsgTune:
			_, _ = DecodeTuneRequest(payload)
		case MsgTuneResult:
			_, _ = DecodeTuneResult(payload)
		case MsgSearch:
			_, _ = DecodeSearch(payload)
		case MsgSearchResult:
			_, _ = DecodeSearchResult(payload)
		case MsgPing, MsgPong:
			_, _ = DecodeHeartbeat(payload)
		case MsgRequeue:
			_, _ = DecodeRequeue(payload)
		case MsgSpec:
			_, _ = DecodeSpec(payload)
		case MsgCorpus:
			_, _ = DecodeCorpusChunk(payload)
		case MsgForget:
			_, _ = DecodeForget(payload)
		}
	})
}

// FuzzSpecFrames: the MsgSpec codec must never panic, must reject any
// frame whose carried ID does not hash to its content, and must be the
// identity on frames it built itself.
func FuzzSpecFrames(f *testing.F) {
	valid := EncodeSpec(JobSpec{
		Algorithm: 1, Charset: "abc", MinLen: 1, MaxLen: 3,
		Target: bytes.Repeat([]byte{0x5a}, 16),
	})
	f.Add(valid)
	// Every single-bit corruption of the ID field is a mismatch frame.
	for bit := 0; bit < 8; bit++ {
		flipped := append([]byte(nil), valid...)
		flipped[bit] ^= 1 << uint(bit)
		f.Add(flipped)
	}
	// ID claims match but the spec bytes moved underneath it.
	moved := append([]byte(nil), valid...)
	moved[len(moved)-1] ^= 0xff
	f.Add(moved)
	f.Add([]byte{})
	f.Add(valid[:7])                                // shorter than the ID itself
	f.Add(valid[:len(valid)-3])                     // truncated spec body
	f.Add(append(append([]byte{}, valid...), 0xcc)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := DecodeSpec(data)
		if err != nil {
			return
		}
		// Whatever decoded must carry the content hash of its own spec...
		if sf.ID != SpecID(sf.Spec) {
			t.Fatalf("accepted frame with ID %016x, content hashes to %016x", sf.ID, SpecID(sf.Spec))
		}
		// ...and re-encode byte-identically.
		if !bytes.Equal(EncodeSpec(sf.Spec), data) {
			t.Fatal("spec frame round trip changed the bytes")
		}
	})
}

// FuzzHeartbeatFrame: heartbeat payloads are exactly one u64; anything
// else must error (never panic), and valid payloads must round-trip.
func FuzzHeartbeatFrame(f *testing.F) {
	f.Add(EncodeHeartbeat(Heartbeat{Seq: 0}))
	f.Add(EncodeHeartbeat(Heartbeat{Seq: 1<<64 - 1}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})               // truncated
	f.Add(append(make([]byte, 8), 0xee)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		hb, err := DecodeHeartbeat(data)
		if err != nil {
			if len(data) == 8 {
				t.Fatalf("8-byte heartbeat rejected: %v", err)
			}
			return
		}
		if len(data) != 8 {
			t.Fatalf("heartbeat accepted %d bytes", len(data))
		}
		if hb.Seq != binary.BigEndian.Uint64(data) {
			t.Fatal("heartbeat seq mangled")
		}
		if !bytes.Equal(EncodeHeartbeat(hb), data) {
			t.Fatal("heartbeat round trip changed the frame")
		}
	})
}

// FuzzRequeueFrame: arbitrary bytes through DecodeRequeue must never
// panic or over-allocate, and whatever decodes must re-encode to an
// equivalent Requeue (interval bounds and reason preserved).
func FuzzRequeueFrame(f *testing.F) {
	f.Add(EncodeRequeue(Requeue{Start: keyspace.IDOf(0), End: keyspace.IDOf(1), Reason: "r"}))
	wide := bigRequeue(new(big.Int).Lsh(big.NewInt(7), 130), new(big.Int).Lsh(big.NewInt(9), 130), "worker shutting down")
	if _, err := DecodeRequeue(wide); err == nil {
		f.Fatal("a requeue bound past 2^128 decoded")
	}
	f.Add(wide)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0xab})                   // truncated field
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}) // oversized length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequeue(data)
		if err != nil {
			return
		}
		back, err := DecodeRequeue(EncodeRequeue(r))
		if err != nil {
			t.Fatalf("re-decode of valid requeue failed: %v", err)
		}
		if back.Start != r.Start || back.End != r.End || back.Reason != r.Reason {
			t.Fatal("requeue round trip changed the message")
		}
	})
}

// bigRequeue is a Requeue payload as a big.Int encoder writes it: each
// bound's big-endian magnitude, length-prefixed, then the reason.
func bigRequeue(start, end *big.Int, reason string) []byte {
	var e enc
	e.bytes(start.Bytes())
	e.bytes(end.Bytes())
	e.str(reason)
	return e.b
}

// FuzzJobRoundTrip: encode/decode must be the identity on valid specs.
func FuzzJobRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), "abc", 1, 4)
	f.Fuzz(func(t *testing.T, target []byte, charset string, minLen, maxLen int) {
		spec := JobSpec{Target: target, Charset: charset,
			MinLen: minLen & 0xffff, MaxLen: maxLen & 0xffff}
		back, err := DecodeJob(EncodeJob(spec))
		if err != nil {
			return // invalid algorithm/order combinations are rejected
		}
		if !bytes.Equal(back.Target, spec.Target) || back.Charset != spec.Charset {
			t.Fatal("round trip changed the job")
		}
	})
}

// FuzzProgressFrames covers the protocol-v4 live-search frames and the
// worker-side shrink state they drive. The codec half: torn, reordered
// or otherwise corrupted Progress/Shrink/ShrinkAck payloads must never
// panic, and whatever decodes must survive a semantic round trip. The
// state half: the same bytes, read as a script of shrink requests
// (including stale-seq ones, which must be inert), land one per batch on
// the core.Live of a real search while that batch is in flight — an
// honored shrink must land at a boundary >= both the request and the
// batch in flight and below the previous limit, a refused one must move
// nothing, and the search must end having tested exactly its final limit.
func FuzzProgressFrames(f *testing.F) {
	space, err := keyspace.New(keyspace.Lower, 1, 3, keyspace.PrefixMajor)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeProgress(Progress{Seq: 1, Done: 64}))
	f.Add(EncodeShrink(Shrink{Seq: 1, Keep: 4096}))
	f.Add(EncodeShrink(Shrink{Seq: 99, Keep: 0})) // stale seq, then cancel form
	f.Add(EncodeShrinkAck(ShrinkAck{Seq: 1, Keep: 4096, OK: true}))
	f.Add(EncodeProgress(Progress{Seq: 1, Done: 64})[:9])   // torn mid-field
	f.Add(EncodeShrinkAck(ShrinkAck{Seq: 2, Keep: 1})[:16]) // missing the OK byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeProgress(data); err == nil {
			back, err := DecodeProgress(EncodeProgress(p))
			if err != nil || back != p {
				t.Fatalf("progress round trip: %+v -> %+v (%v)", p, back, err)
			}
		}
		if s, err := DecodeShrink(data); err == nil {
			back, err := DecodeShrink(EncodeShrink(s))
			if err != nil || back != s {
				t.Fatalf("shrink round trip: %+v -> %+v (%v)", s, back, err)
			}
		}
		if a, err := DecodeShrinkAck(data); err == nil {
			back, err := DecodeShrinkAck(EncodeShrinkAck(a))
			if err != nil || back != a {
				t.Fatalf("shrink ack round trip: %+v -> %+v (%v)", a, back, err)
			}
		}

		// Script half: a one-goroutine search in 64-key batches; the
		// first candidate of batch i applies data[i] the way the worker's
		// read loop would interleave a MsgShrink.
		const batch, searchSeq = 64, uint64(7)
		iv := keyspace.NewInterval(0, 1<<12)
		live := core.NewLive(iv, nil)
		limit, n := uint64(1<<12), uint64(0)
		test := func([]byte) bool {
			if i := n / batch; n%batch == 0 && i < uint64(len(data)) {
				b := data[i]
				keep := uint64(b>>2) * batch / 2 // deliberately off-boundary half the time
				// Other seqs never reach the handle (inert by the seq
				// guard in the worker's MsgShrink case).
				if seq := searchSeq + uint64(b&3)/2; seq == searchSeq {
					busyTo := min(n+batch, limit)
					if cut, ok := live.Shrink(keep); ok {
						if cut < keep || cut < busyTo || cut >= limit {
							t.Fatalf("shrink(%d) acked %d with busyTo %d limit %d", keep, cut, busyTo, limit)
						}
						limit = cut
					}
				}
			}
			n++
			return false
		}
		res, err := core.Search(context.Background(), core.KeyspaceFactory(space), iv, test,
			core.Options{Workers: 1, ChunkSize: batch, Live: live})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tested != limit || n != limit {
			t.Fatalf("search tested %d keys (%d calls), final limit %d", res.Tested, n, limit)
		}
	})
}
