// Package md5x is a from-scratch implementation of the MD5 message-digest
// algorithm (RFC 1321) structured for exhaustive key search.
//
// Beyond a conventional streaming digest, the package exposes the internals
// the paper's optimized kernels need (Section V):
//
//   - Compress, the raw 64-step block transform;
//   - PackKey, the single-block packed-uint32 representation used for keys
//     of at most 55 bytes;
//   - ReverseContext, the BarsWF "reversal" optimization: the last 15 steps
//     of MD5 do not read message word m[0], so for candidate runs in which
//     only m[0] varies they are inverted once starting from the target
//     digest, and every candidate runs only the first 49 steps forward —
//     with early-exit comparisons after steps 45, 46, 47 and 48;
//   - RunSearcher, which searches a whole prefix-major run at once: word 0
//     is counted up over per-position symbol tables and screened sixteen
//     candidates at a time in vector lanes, or two by an interleaved
//     straight-line kernel. The forward kernels are generated into
//     kernels_gen.go and screen_amd64.s by ./gen from T, Shift, MsgIndex
//     and Round.
//
// The implementation is pure Go and depends only on the standard library;
// crypto/md5 is used exclusively in tests, as a differential oracle.
package md5x

import "math/bits"

// Size is the length of an MD5 digest in bytes.
const Size = 16

// BlockSize is the MD5 block size in bytes.
const BlockSize = 64

// iv is the standard MD5 initial state (RFC 1321 section 3.3).
var iv = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}

// T holds the 64 sine-derived additive constants of RFC 1321 (section 3.4).
var T = [64]uint32{
	0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee,
	0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
	0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
	0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
	0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa,
	0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
	0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
	0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
	0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
	0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
	0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05,
	0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
	0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039,
	0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
	0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
	0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
}

// shifts holds the per-step rotation amounts (RFC 1321 section 3.4).
var shifts = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// MsgIndex returns the message-word index g(i) read by step i (0-based),
// per RFC 1321: i, (5i+1) mod 16, (3i+5) mod 16, (7i) mod 16 across the
// four rounds. Step 48 is the only step of the final 16 that reads m[0],
// which is what makes the 15-step reversal possible.
func MsgIndex(i int) int {
	switch {
	case i < 16:
		return i
	case i < 32:
		return (5*i + 1) % 16
	case i < 48:
		return (3*i + 5) % 16
	default:
		return (7 * i) % 16
	}
}

// Shift returns the rotation amount of step i.
func Shift(i int) uint { return shifts[i] }

// IV returns the standard initial state.
func IV() [4]uint32 { return iv }

func fF(b, c, d uint32) uint32 { return (b & c) | (^b & d) }
func fG(b, c, d uint32) uint32 { return (b & d) | (c & ^d) }
func fH(b, c, d uint32) uint32 { return b ^ c ^ d }
func fI(b, c, d uint32) uint32 { return c ^ (b | ^d) }

// Round returns the value of step i's boolean function: F, G, H or I.
func Round(i int, b, c, d uint32) uint32 {
	switch {
	case i < 16:
		return fF(b, c, d)
	case i < 32:
		return fG(b, c, d)
	case i < 48:
		return fH(b, c, d)
	default:
		return fI(b, c, d)
	}
}

// Step applies MD5 step i to the rotating register file, returning the new
// registers. The register naming follows RFC 1321's (a,b,c,d) convention
// where a is the slot overwritten by the step.
func Step(i int, a, b, c, d, m uint32) (uint32, uint32, uint32, uint32) {
	a += Round(i, b, c, d) + m + T[i]
	a = b + bits.RotateLeft32(a, int(shifts[i]))
	return d, a, b, c // new (a, b, c, d)
}

// InvStep inverts MD5 step i: given the register file after the step and
// the message word it consumed, it returns the register file before it.
func InvStep(i int, a, b, c, d, m uint32) (uint32, uint32, uint32, uint32) {
	// Forward: (a', b', c', d') = (d, b + rotl(a + f(b,c,d) + m + T, s), b, c)
	pb, pc, pd := c, d, a
	pa := bits.RotateLeft32(b-pb, -int(shifts[i])) - Round(i, pb, pc, pd) - m - T[i]
	return pa, pb, pc, pd
}

// Compress applies the MD5 block transform: it updates state in place with
// the 64-step compression of one 16-word little-endian block.
func Compress(state *[4]uint32, block *[16]uint32) {
	a, b, c, d := state[0], state[1], state[2], state[3]

	// Round 1 (F), steps 0..15.
	for i := 0; i < 16; i++ {
		t := a + fF(b, c, d) + block[i] + T[i]
		a, b, c, d = d, b+bits.RotateLeft32(t, int(shifts[i])), b, c
	}
	// Round 2 (G), steps 16..31.
	for i := 16; i < 32; i++ {
		t := a + fG(b, c, d) + block[(5*i+1)%16] + T[i]
		a, b, c, d = d, b+bits.RotateLeft32(t, int(shifts[i])), b, c
	}
	// Round 3 (H), steps 32..47.
	for i := 32; i < 48; i++ {
		t := a + fH(b, c, d) + block[(3*i+5)%16] + T[i]
		a, b, c, d = d, b+bits.RotateLeft32(t, int(shifts[i])), b, c
	}
	// Round 4 (I), steps 48..63.
	for i := 48; i < 64; i++ {
		t := a + fI(b, c, d) + block[(7*i)%16] + T[i]
		a, b, c, d = d, b+bits.RotateLeft32(t, int(shifts[i])), b, c
	}

	state[0] += a
	state[1] += b
	state[2] += c
	state[3] += d
}

// Sum returns the MD5 digest of data.
func Sum(data []byte) [Size]byte {
	var d Digest
	d.Reset()
	d.Write(data)
	var out [Size]byte
	d.sumInto(&out)
	return out
}
