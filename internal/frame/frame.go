// Package frame is the one durable-record layer: every byte layout that
// records which intervals remain is framed, checksummed, appended and
// fsynced here and nowhere else.
//
//   - Append/Read: u32 len | u8 type | u64 seq | payload | u32 CRC32 over
//     type‖seq‖payload — the store WAL (jobs.wal) and the replication
//     stream. The caller supplies its type space and payload cap (Format).
//   - Seal/Open: body‖CRC32(body) — the ring, target-set and churn blobs.
//   - Log: the append-only file of frames (replay, torn-tail repair,
//     append, fsync, reset after a snapshot).
//   - WriteFileAtomic: tmp + fsync + rename + directory fsync.
//
// Deliberately not here: netproto's len|type|payload wire has no seq and
// no CRC — folding it in would bump the protocol version and add bytes to
// the per-lease RPC — and the JSON "sum":"crc32:…" envelope of the
// store snapshot keeps its format; it shares only WriteFileAtomic.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Decode failure modes, shared by every client. A torn frame is one cut
// short by EOF: the expected residue of a crash mid-append (repaired by
// truncation) or of a severed link. Anything else that fails validation
// is corrupt: the bytes cannot be trusted and the reader must refuse
// them, never resynchronize by scanning.
var (
	ErrTorn    = errors.New("frame: torn record")
	ErrCorrupt = errors.New("frame: corrupt record")
)

const (
	headerLen  = 4 + 1 + 8
	trailerLen = 4
	// Overhead is the encoded size of a frame beyond its payload.
	Overhead = headerLen + trailerLen
)

// Frame is one decoded frame.
type Frame struct {
	Type    byte
	Seq     uint64
	Payload []byte
}

// Format is what a client fixes about its frames: types run 1..Types,
// and a longer payload is corruption rather than an allocation.
type Format struct {
	Types      byte
	MaxPayload int
}

func (ft Format) check(typ byte, plen uint64) error {
	if plen > uint64(ft.MaxPayload) {
		return fmt.Errorf("%w: payload of %d bytes", ErrCorrupt, plen)
	}
	if typ < 1 || typ > ft.Types {
		return fmt.Errorf("%w: unknown type %d", ErrCorrupt, typ)
	}
	return nil
}

// Append appends the encoding of one frame to buf.
func Append(buf []byte, typ byte, seq uint64, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	start := len(buf)
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Read decodes the next frame. io.EOF at a frame boundary is the clean
// end; EOF inside a frame is ErrTorn; a length or type outside ft, or a
// checksum mismatch, is ErrCorrupt. Any other read error is returned as
// it came: an I/O failure is neither crash residue nor damage.
func Read(r io.Reader, ft Format) (Frame, error) {
	var hdr [headerLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err == io.EOF {
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, torn(err, "header", n)
	}
	plen := binary.BigEndian.Uint32(hdr[:4])
	if err := ft.check(hdr[4], uint64(plen)); err != nil {
		return Frame{}, err
	}
	body := make([]byte, int(plen)+trailerLen)
	if n, err := io.ReadFull(r, body); err != nil {
		return Frame{}, torn(err, "body", n)
	}
	want := binary.BigEndian.Uint32(body[plen:])
	got := crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, body[:plen])
	if got != want {
		return Frame{}, fmt.Errorf("%w: checksum mismatch (frame %08x, content %08x)", ErrCorrupt, want, got)
	}
	return Frame{Type: hdr[4], Seq: binary.BigEndian.Uint64(hdr[5:]), Payload: body[:plen]}, nil
}

// torn classifies a mid-frame read failure.
func torn(err error, part string, n int) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: partial %s (%d bytes)", ErrTorn, part, n)
	}
	return fmt.Errorf("frame: reading %s: %w", part, err)
}

// Seal appends the CRC32 of body to it: the sealed-blob trailer.
func Seal(body []byte) []byte {
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// Open verifies a sealed blob's trailer and returns the body.
func Open(blob []byte) ([]byte, error) {
	if len(blob) < trailerLen {
		return nil, fmt.Errorf("%w: sealed blob of %d bytes", ErrTorn, len(blob))
	}
	body := blob[:len(blob)-trailerLen]
	want, got := binary.BigEndian.Uint32(blob[len(body):]), crc32.ChecksumIEEE(body)
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (blob %08x, content %08x)", ErrCorrupt, want, got)
	}
	return body, nil
}
