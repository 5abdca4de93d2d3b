package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

var testFormat = Format{Types: 3, MaxPayload: 1 << 16}

// readAll decodes frames until the stream ends, returning them with the
// terminating error (io.EOF for a clean end).
func readAll(t *testing.T, stream []byte) ([]Frame, error) {
	t.Helper()
	r := bytes.NewReader(stream)
	var out []Frame
	consumed := 0
	for {
		fr, err := Read(r, testFormat)
		if err != nil {
			return out, err
		}
		enc := Append(nil, fr.Type, fr.Seq, fr.Payload)
		if !bytes.Equal(enc, stream[consumed:consumed+len(enc)]) {
			t.Fatal("decoded frame does not re-encode to the consumed bytes")
		}
		consumed += len(enc)
		out = append(out, fr)
	}
}

// TestGoldenFrames pins the layout against bytes captured from the two
// codecs this package replaced (jobs.appendRecord and
// shardplane.AppendFrame at the parent commit): a WAL file or a
// replication peer from before the fold reads the same.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		name    string
		typ     byte
		seq     uint64
		payload string
		want    string
	}{
		{"wal checkpoint record", 3, 42, `{"id":"j000001"}`, "0000001003000000000000002a7b226964223a226a303030303031227de1c979fe"},
		{"wal empty payload", 1, 1, "", "000000000100000000000000018675307b"},
		{"replication record", 2, 42, "\x01" + `{"id":"s0-j000001"}`, "0000001402000000000000002a017b226964223a2273302d6a303030303031227dddeb9bfe"},
		{"replication ack", 3, 9, "", "00000000030000000000000009a65890cf"},
	}
	for _, tc := range cases {
		got := hex.EncodeToString(Append(nil, tc.typ, tc.seq, []byte(tc.payload)))
		if got != tc.want {
			t.Errorf("%s: encoded %s, parent wrote %s", tc.name, got, tc.want)
		}
		raw, _ := hex.DecodeString(tc.want)
		fr, err := Read(bytes.NewReader(raw), testFormat)
		if err != nil || fr.Type != tc.typ || fr.Seq != tc.seq || string(fr.Payload) != tc.payload {
			t.Errorf("%s: parent bytes decode to %+v, %v", tc.name, fr, err)
		}
	}
}

// TestQuickRoundTrip: any run of in-format frames decodes back to
// itself, and any sealed blob opens to its body while every single-bit
// flip of it is refused.
func TestQuickRoundTrip(t *testing.T) {
	frames := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var want []Frame
		var stream []byte
		for i := 0; i < int(n%8); i++ {
			fr := Frame{Type: byte(1 + rng.Intn(3)), Seq: rng.Uint64(), Payload: make([]byte, rng.Intn(300))}
			rng.Read(fr.Payload)
			want = append(want, fr)
			stream = Append(stream, fr.Type, fr.Seq, fr.Payload)
		}
		got, err := readAll(t, stream)
		return err == io.EOF && len(got) == len(want) && (len(want) == 0 || reflect.DeepEqual(got, want))
	}
	if err := quick.Check(frames, nil); err != nil {
		t.Error(err)
	}
	sealed := func(body []byte) bool {
		blob := Seal(append([]byte(nil), body...))
		got, err := Open(blob)
		if err != nil || !bytes.Equal(got, body) {
			return false
		}
		for i := range blob {
			blob[i] ^= 0x04
			if _, err := Open(blob); !errors.Is(err, ErrCorrupt) {
				return false
			}
			blob[i] ^= 0x04
		}
		_, err = Open(blob[:len(blob)%4])
		return errors.Is(err, ErrTorn)
	}
	if err := quick.Check(sealed, nil); err != nil {
		t.Error(err)
	}
}

// FuzzFrame is the one structure-aware fuzzer of the framing: it builds
// a two-frame stream from fuzzed fields, then cuts it, flips a bit in it
// and appends garbage, and checks the decoder and the log's recovery
// against what was built.
func FuzzFrame(f *testing.F) {
	const none = 1 << 20 // a cut or flip offset past any seed stream
	a, b := []byte(`{"id":"j1"}`), []byte(`{"id":"j2"}`)
	sizeA := Overhead + len(a)
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, none, none, byte(0), []byte(nil))                     // intact
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, headerLen-1, none, byte(0), []byte(nil))              // torn header
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, sizeA+headerLen+2, none, byte(0), []byte(nil))        // torn body
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, none, sizeA-1, byte(0x01), []byte(nil))               // flipped CRC bit
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, none, 0, byte(0x80), []byte(nil))                     // oversize length
	f.Add(byte(1), uint64(1), a, byte(2), uint64(1), b, none, none, byte(0), []byte(nil))                     // duplicate seq
	f.Add(byte(1), uint64(2), a, byte(2), uint64(1), b, none, none, byte(0), []byte(nil))                     // reordered seq
	f.Add(byte(1), uint64(1), a, byte(2), uint64(2), b, none, none, byte(0), []byte{0xde, 0xad})              // trailing garbage
	f.Add(byte(3), uint64(1), []byte(nil), byte(3), uint64(2), []byte(nil), none, none, byte(0), []byte(nil)) // empty payloads
	f.Add(byte(0), uint64(1), a, byte(9), uint64(2), b, none, none, byte(0), []byte(nil))                     // types outside the format

	f.Fuzz(func(t *testing.T, typA byte, seqA uint64, payA []byte, typB byte, seqB uint64, payB []byte, cut, flipAt int, flipBit byte, tail []byte) {
		built := []Frame{{typA, seqA, payA}, {typB, seqB, payB}}
		stream := Append(Append(nil, typA, seqA, payA), typB, seqB, payB)
		framed := len(stream)
		stream = append(stream, tail...)
		mutated := len(tail) > 0
		if cut >= 0 && cut < len(stream) {
			stream, mutated = stream[:cut], true
		}
		flipped := flipAt >= 0 && flipAt < len(stream) && flipAt < framed && flipBit != 0
		if flipped {
			stream[flipAt] ^= flipBit
			mutated = true
		}

		got, err := readAll(t, stream)
		if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified decode error: %v", err)
		}
		inFormat := func(fr Frame) bool {
			return testFormat.check(fr.Type, uint64(len(fr.Payload))) == nil
		}
		for _, fr := range got {
			if !inFormat(fr) {
				t.Fatalf("decoder admitted a frame outside the format: %+v", fr)
			}
		}
		intact := len(got) == 2 && got[0].Type == typA && got[0].Seq == seqA && bytes.Equal(got[0].Payload, payA) &&
			got[1].Type == typB && got[1].Seq == seqB && bytes.Equal(got[1].Payload, payB)
		if !mutated && inFormat(built[0]) && inFormat(built[1]) && !(intact && err == io.EOF) {
			t.Fatalf("unmutated stream decoded to %+v, %v", got, err)
		}
		if flipped && intact {
			t.Fatal("a flipped bit went unnoticed")
		}

		// The same bytes as a log file: recovery either refuses them as
		// corrupt or replays a contiguous run from 1 and leaves exactly
		// those frames in the file.
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, stream, 0o600); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path, LogOptions{Format: testFormat, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var kept int64
		err = l.Replay(0, func(fr Frame) error {
			if fr.Seq != uint64(kept)+1 {
				t.Fatalf("replay applied sequence %d after %d", fr.Seq, kept)
			}
			kept++
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified recovery error: %v", err)
			}
			return
		}
		if l.Seq() != uint64(kept) {
			t.Fatalf("log resumes at %d after replaying %d frames", l.Seq(), kept)
		}
		rest, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, err := readAll(t, rest)
		live := int64(0)
		for _, fr := range again {
			if fr.Seq > 0 { // sequence 0 sits at the watermark and is skipped, not applied
				live++
			}
		}
		if err != io.EOF || live != kept || !bytes.HasPrefix(stream, rest) {
			t.Fatalf("repaired log holds %d live frames (%v), replay applied %d", live, err, kept)
		}
	})
}
