package targetset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"keysearch/internal/frame"
)

// Serialized form (all integers big-endian, mirroring the netproto wire
// conventions):
//
//	magic   [4]byte "TSET"
//	version u8      (1)
//	size    u8      digest length in bytes
//	k       u8      probe count
//	pad     u8      (0)
//	n       u32     corpus cardinality
//	seed    u64     probe-hash seed
//	fpr     f64     requested false-positive rate (IEEE 754 bits)
//	words   u32     filter length in 64-bit words
//	corpus  n*size bytes, sorted unique digests
//	bits    words*8 bytes
//	crc     u32     CRC-32 (IEEE) of everything above
//
// The encoding is canonical — a given corpus, rate and seed produce
// exactly one byte sequence — so its FNV-1a hash (ID) content-addresses
// the set the way netproto spec IDs address job specs. Decode verifies
// the CRC and every structural invariant, so a truncated or corrupted
// frame is rejected rather than admitted as a subtly different corpus;
// the WAL fuzzers' framing discipline, applied here (FuzzTargetSetCodec
// keeps it honest).

var codecMagic = [4]byte{'T', 'S', 'E', 'T'}

const codecVersion = 1

const headerLen = 4 + 1 + 1 + 1 + 1 + 4 + 8 + 8 + 4

// MaxEncoded bounds an accepted encoding (64 MiB holds a corpus of four
// million SHA-256 digests); Decode rejects anything larger up front.
const MaxEncoded = 64 << 20

// Encode serializes the set in the canonical form above.
func (s *Set) Encode() []byte {
	b := make([]byte, 0, headerLen+len(s.corpus)+len(s.bits)*8+4)
	b = append(b, codecMagic[:]...)
	b = append(b, codecVersion, byte(s.size), byte(s.k), 0)
	b = binary.BigEndian.AppendUint32(b, uint32(s.n))
	b = binary.BigEndian.AppendUint64(b, s.seed)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.fpr))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.bits)))
	b = append(b, s.corpus...)
	for _, w := range s.bits {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return frame.Seal(b)
}

// ID returns the FNV-1a 64-bit hash of an encoded set — the content
// address the wire protocol ships ahead of corpus chunks. It matches
// netproto's spec-ID hash by construction, so either side can derive it
// from the blob alone.
func ID(encoded []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range encoded {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Decode parses and verifies an encoded set. Every failure mode is a
// distinct error: bad length, bad magic/version, CRC mismatch, geometry
// that does not satisfy the builder's invariants, or a corpus that is
// not sorted and unique (the canonical-form requirement content
// addressing depends on).
func Decode(b []byte) (*Set, error) {
	if len(b) > MaxEncoded {
		return nil, fmt.Errorf("targetset: encoding of %d bytes exceeds the %d-byte cap", len(b), MaxEncoded)
	}
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("targetset: truncated encoding (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != codecMagic {
		return nil, fmt.Errorf("targetset: bad magic %q", b[:4])
	}
	if b[4] != codecVersion {
		return nil, fmt.Errorf("targetset: unsupported codec version %d", b[4])
	}
	size := int(b[5])
	k := int(b[6])
	if b[7] != 0 {
		return nil, fmt.Errorf("targetset: nonzero pad byte %d", b[7])
	}
	n := int(binary.BigEndian.Uint32(b[8:12]))
	seed := binary.BigEndian.Uint64(b[12:20])
	fpr := math.Float64frombits(binary.BigEndian.Uint64(b[20:28]))
	words := int(binary.BigEndian.Uint32(b[28:32]))

	if size < 1 {
		return nil, fmt.Errorf("targetset: zero digest size")
	}
	if k < 1 || k > maxHashes {
		return nil, fmt.Errorf("targetset: probe count %d outside [1,%d]", k, maxHashes)
	}
	if n < 1 {
		return nil, fmt.Errorf("targetset: empty corpus")
	}
	if words < 1 || words&(words-1) != 0 {
		return nil, fmt.Errorf("targetset: filter length %d words is not a power of two", words)
	}
	if fpr <= 0 || fpr > 0.5 || math.IsNaN(fpr) {
		return nil, fmt.Errorf("targetset: false-positive rate %v outside (0, 0.5]", fpr)
	}
	want := headerLen + n*size + words*8 + 4
	if len(b) != want {
		return nil, fmt.Errorf("targetset: encoding is %d bytes, header implies %d", len(b), want)
	}
	if _, err := frame.Open(b); err != nil {
		return nil, fmt.Errorf("targetset: %w", err)
	}

	corpus := make([]byte, n*size)
	copy(corpus, b[headerLen:headerLen+n*size])
	for i := 1; i < n; i++ {
		prev := corpus[(i-1)*size : i*size]
		cur := corpus[i*size : (i+1)*size]
		if bytes.Compare(prev, cur) >= 0 {
			return nil, fmt.Errorf("targetset: corpus not sorted/unique at digest %d (non-canonical encoding)", i)
		}
	}
	bits := make([]uint64, words)
	off := headerLen + n*size
	for i := range bits {
		bits[i] = binary.BigEndian.Uint64(b[off+i*8 : off+i*8+8])
	}
	s := &Set{
		size:   size,
		n:      n,
		corpus: corpus,
		seed:   seed,
		k:      k,
		mask:   uint64(words)*64 - 1,
		bits:   bits,
		fpr:    fpr,
	}
	// Re-verify the no-false-negative invariant: every corpus digest must
	// hit the filter. The CRC protects against corruption; this protects
	// against a consistent-but-wrong frame (a CRC collision, or a foreign
	// encoder with a different probe function), which would otherwise turn
	// the pre-screen into silent missed keys — the one failure mode a
	// search must never have.
	for i := 0; i < n; i++ {
		if !s.MayContain(corpus[i*size : (i+1)*size]) {
			return nil, fmt.Errorf("targetset: filter misses corpus digest %d (incompatible or corrupt bank)", i)
		}
	}
	s.indexWord4()
	return s, nil
}
