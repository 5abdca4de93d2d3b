// Package sha1x is a from-scratch implementation of the SHA1 secure hash
// algorithm (RFC 3174) structured for exhaustive key search, mirroring the
// md5x package: a streaming digest, a raw block transform, a packed
// single-block key representation, and an early-exit search kernel.
//
// SHA1's message schedule expands every input word into the late rounds, so
// the 15-step reversal trick of MD5 does not transfer; the paper applies
// "the same kind of analysis" (Section V) and the corresponding kernel here
// implements the transferable parts: packed registers, hoisting the final
// feed-forward additions out of the loop by comparing against target−IV,
// and early-exit comparisons over the last five steps. The served kernel,
// RunSearcher, goes further on prefix-major runs: the schedule is split
// once per run around word 0, and a candidate stops after step 75, where
// the digest's last word is already known; with AVX2, sixteen candidates
// run those steps at once in vector lanes.
//
// crypto/sha1 is used only in tests, as a differential oracle.
package sha1x

import (
	"encoding/binary"
	"math/bits"
)

// Size is the length of a SHA1 digest in bytes.
const Size = 20

// BlockSize is the SHA1 block size in bytes.
const BlockSize = 64

// iv is the standard SHA1 initial state (RFC 3174 section 6.1).
var iv = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}

// K holds the four stage constants.
var K = [4]uint32{0x5a827999, 0x6ed9eba1, 0x8f1bbcdc, 0xca62c1d6}

// IV returns the standard initial state.
func IV() [5]uint32 { return iv }

func fCh(b, c, d uint32) uint32     { return (b & c) | (^b & d) }
func fParity(b, c, d uint32) uint32 { return b ^ c ^ d }
func fMaj(b, c, d uint32) uint32    { return (b & c) | (b & d) | (c & d) }

// Round returns the value of step t's boolean function: Ch for steps
// 0..19, Maj for 40..59, parity otherwise.
func Round(t int, b, c, d uint32) uint32 {
	switch t / 20 {
	case 0:
		return fCh(b, c, d)
	case 2:
		return fMaj(b, c, d)
	}
	return fParity(b, c, d)
}

// Expand fills w[16..79] from w[0..15] with the SHA1 message schedule.
func Expand(w *[80]uint32) {
	for i := 16; i < 80; i++ {
		w[i] = bits.RotateLeft32(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
	}
}

// Compress applies the SHA1 block transform: it updates state in place with
// the 80-step compression of one 16-word big-endian block.
func Compress(state *[5]uint32, block *[16]uint32) {
	var w [80]uint32
	copy(w[:16], block[:])
	Expand(&w)

	a, b, c, d, e := state[0], state[1], state[2], state[3], state[4]
	for i := 0; i < 20; i++ {
		t := bits.RotateLeft32(a, 5) + fCh(b, c, d) + e + w[i] + K[0]
		a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
	}
	for i := 20; i < 40; i++ {
		t := bits.RotateLeft32(a, 5) + fParity(b, c, d) + e + w[i] + K[1]
		a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
	}
	for i := 40; i < 60; i++ {
		t := bits.RotateLeft32(a, 5) + fMaj(b, c, d) + e + w[i] + K[2]
		a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
	}
	for i := 60; i < 80; i++ {
		t := bits.RotateLeft32(a, 5) + fParity(b, c, d) + e + w[i] + K[3]
		a, b, c, d, e = t, a, bits.RotateLeft32(b, 30), c, d
	}

	state[0] += a
	state[1] += b
	state[2] += c
	state[3] += d
	state[4] += e
}

// Digest is a streaming SHA1 computation implementing hash.Hash semantics.
type Digest struct {
	state [5]uint32
	buf   [BlockSize]byte
	n     int
	len   uint64
}

// New returns a reset Digest.
func New() *Digest {
	d := new(Digest)
	d.Reset()
	return d
}

// Reset restores the initial state.
func (d *Digest) Reset() {
	d.state = iv
	d.n = 0
	d.len = 0
}

// Size returns the digest length in bytes.
func (d *Digest) Size() int { return Size }

// BlockSize returns the block length in bytes.
func (d *Digest) BlockSize() int { return BlockSize }

// Write absorbs p into the digest. It never returns an error.
func (d *Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == BlockSize {
			d.compressBuf()
			d.n = 0
		}
	}
	for len(p) >= BlockSize {
		var block [16]uint32
		for i := range block {
			block[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		Compress(&d.state, &block)
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.n = copy(d.buf[:], p)
	}
	return n, nil
}

func (d *Digest) compressBuf() {
	var block [16]uint32
	for i := range block {
		block[i] = binary.BigEndian.Uint32(d.buf[4*i:])
	}
	Compress(&d.state, &block)
}

// Sum appends the digest of the data written so far to b.
func (d *Digest) Sum(b []byte) []byte {
	tmp := *d
	tmp.buf[tmp.n] = 0x80
	for i := tmp.n + 1; i < BlockSize; i++ {
		tmp.buf[i] = 0
	}
	if tmp.n >= 56 {
		tmp.compressBuf()
		for i := range tmp.buf {
			tmp.buf[i] = 0
		}
	}
	binary.BigEndian.PutUint64(tmp.buf[56:], tmp.len<<3)
	tmp.compressBuf()
	var out [Size]byte
	for i, s := range tmp.state {
		binary.BigEndian.PutUint32(out[4*i:], s)
	}
	return append(b, out[:]...)
}

// Sum returns the SHA1 digest of data.
func Sum(data []byte) [Size]byte {
	d := New()
	d.Write(data)
	var out [Size]byte
	copy(out[:], d.Sum(nil))
	return out
}

// StateWords decodes a 20-byte digest into five big-endian state words.
func StateWords(digest [Size]byte) [5]uint32 {
	var w [5]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(digest[4*i:])
	}
	return w
}

// DigestBytes encodes five state words as a 20-byte digest.
func DigestBytes(w [5]uint32) [Size]byte {
	var out [Size]byte
	for i := range w {
		binary.BigEndian.PutUint32(out[4*i:], w[i])
	}
	return out
}
