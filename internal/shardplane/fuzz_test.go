package shardplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"keysearch/internal/frame"
)

// frameHeaderLen is the frame header (length, type, sequence) ahead of
// the payload.
const frameHeaderLen = frame.Overhead - 4

// FuzzReplicationFrames: arbitrary bytes through the frame decoder
// under the stream's format (its type space and payload cap) must
// never panic or over-allocate; every failure classifies as clean EOF,
// torn, or corrupt; and whatever decodes re-encodes to the bytes
// consumed. The framing itself is fuzzed structure-aware by
// frame.FuzzFrame.
func FuzzReplicationFrames(f *testing.F) {
	good := frame.Append(nil, FrameRecord, 42, append([]byte{1}, []byte(`{"id":"s0-j000001"}`)...))
	f.Add(good)
	f.Add(frame.Append(nil, FrameSnapshot, 7, []byte(`{"seq":7,"jobs":null,"sum":"crc32:00000000"}`)))
	f.Add(frame.Append(nil, FrameAck, 9, nil))
	f.Add(good[:len(good)-2])                                                  // torn trailer
	f.Add(good[:frameHeaderLen-1])                                             // torn header
	f.Add([]byte{})                                                            // clean EOF
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, FrameRecord, 0, 0, 0, 0, 0, 0, 0, 0}) // oversized length
	damaged := append([]byte(nil), good...)
	damaged[frameHeaderLen+3] ^= 0x10
	f.Add(damaged) // checksum mismatch
	wrongType := append([]byte(nil), good...)
	wrongType[4] = 0x7f
	f.Add(wrongType) // unknown frame type
	// Two frames concatenated, then the pair reordered: each frame is
	// self-contained, so both must decode individually — sequence
	// enforcement lives in the replica, not the codec.
	pair := frame.Append(frame.Append(nil, FrameRecord, 1, []byte{1, 'a'}), FrameRecord, 2, []byte{1, 'b'})
	f.Add(pair)
	first := frame.Append(nil, FrameRecord, 1, []byte{1, 'a'})
	f.Add(append(append([]byte(nil), pair[len(first):]...), pair[:len(first)]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		consumed := 0
		for {
			fr, err := frame.Read(r, streamFormat)
			if err != nil {
				if err != io.EOF && !errors.Is(err, frame.ErrTorn) && !errors.Is(err, frame.ErrCorrupt) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			enc := frame.Append(nil, fr.Type, fr.Seq, fr.Payload)
			if !bytes.Equal(enc, data[consumed:consumed+len(enc)]) {
				t.Fatal("decoded frame does not re-encode to the consumed bytes")
			}
			consumed += len(enc)
		}
	})
}

// FuzzRingCodec: arbitrary bytes through the ring decoder must never
// panic; anything accepted must be canonical — it re-encodes to the
// same bytes, carries a stable ID, and places tenants identically to a
// ring rebuilt from its own parameters.
func FuzzRingCodec(f *testing.F) {
	mustRing := func(shards []string, opts RingOptions) *Ring {
		r, err := NewRing(shards, opts)
		if err != nil {
			f.Fatal(err)
		}
		return r
	}
	good := mustRing([]string{"s0", "s1", "s2"}, RingOptions{VNodes: 16, Seed: 3}).Encode()
	f.Add(good)
	f.Add(mustRing([]string{"solo"}, RingOptions{}).Encode())
	f.Add(good[:len(good)-5]) // truncated
	f.Add([]byte{})
	damaged := append([]byte(nil), good...)
	damaged[len(damaged)/2] ^= 0x20
	f.Add(damaged)                                    // corrupt body
	f.Add(append(append([]byte(nil), good...), 0x00)) // trailing byte
	// Reordered/unsorted shard table under a recomputed CRC: framing
	// valid, canonical-form check must reject it.
	f.Add(buildRawRing(3, 16, []string{"s1", "s0"}))
	// Duplicate names under a valid CRC.
	f.Add(buildRawRing(3, 16, []string{"s0", "s0"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRing(data)
		if err != nil {
			if !errors.Is(err, ErrRingCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		enc := r.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted encoding is not canonical")
		}
		rebuilt, err := NewRing(r.Shards(), RingOptions{VNodes: r.VNodes(), Seed: r.Seed()})
		if err != nil {
			t.Fatalf("accepted ring cannot be rebuilt: %v", err)
		}
		if rebuilt.ID() != r.ID() {
			t.Fatal("rebuilt ring has a different ID")
		}
		for _, tn := range []string{"", "a", "tenant-1", "tenant-2"} {
			if rebuilt.Owner(tn) != r.Owner(tn) {
				t.Fatalf("rebuilt ring places tenant %q differently", tn)
			}
		}
	})
}

// buildRawRing hand-assembles a ring encoding (possibly violating the
// sorted-unique invariant) with a valid CRC, for seeds that probe the
// canonical-form checks.
func buildRawRing(seed uint64, vnodes uint32, shards []string) []byte {
	buf := []byte(ringMagic)
	buf = append(buf, ringVersion)
	buf = binary.BigEndian.AppendUint64(buf, seed)
	buf = binary.BigEndian.AppendUint32(buf, vnodes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(shards)))
	for _, s := range shards {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	return frame.Seal(buf)
}
