package shardplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"keysearch/internal/frame"
)

// Consistent-hash ring over shard names. Each shard contributes VNodes
// virtual points on a 64-bit circle; a tenant is owned by the shard
// whose point is first at or clockwise of the tenant's hash. Placement
// is a pure function of (seed, shard set, tenant): two processes
// holding rings with the same content-address ID route identically,
// and adding a shard reassigns only tenants whose arcs the new shard's
// points split — the consistent-hash-minimal set.

// ErrRingCorrupt reports a ring encoding that failed validation.
var ErrRingCorrupt = errors.New("shardplane: corrupt ring encoding")

// defaultVNodes balances placement smoothness against ring size; 64
// points per shard keeps the max/min tenant share within ~30% for
// small shard counts.
const defaultVNodes = 64

// ringMagic and ringVersion frame the canonical encoding.
const (
	ringMagic   = "KSRG"
	ringVersion = 1
)

// maxRingShards bounds a decoded shard count; anything larger is
// treated as corruption rather than a cause for a giant allocation.
const maxRingShards = 1 << 16

// RingOptions configure NewRing.
type RingOptions struct {
	// VNodes is the number of virtual points per shard (0 = default).
	VNodes int
	// Seed perturbs every hash, so distinct deployments with the same
	// shard names still place tenants independently.
	Seed uint64
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// Ring is an immutable consistent-hash topology.
type Ring struct {
	shards []string // sorted, unique
	vnodes int
	seed   uint64
	points []ringPoint // sorted by hash
}

// NewRing builds the ring for a shard set. Shard names must be
// non-empty and distinct; order does not matter (the ring sorts them,
// so any permutation yields the identical topology and ID).
func NewRing(shards []string, opts RingOptions) (*Ring, error) {
	if len(shards) == 0 {
		return nil, errors.New("shardplane: ring needs at least one shard")
	}
	vnodes := opts.VNodes
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	names := append([]string(nil), shards...)
	sort.Strings(names)
	for i, n := range names {
		if n == "" {
			return nil, errors.New("shardplane: empty shard name")
		}
		if i > 0 && names[i-1] == n {
			return nil, fmt.Errorf("shardplane: duplicate shard name %q", n)
		}
	}
	r := &Ring{shards: names, vnodes: vnodes, seed: opts.Seed}
	r.points = make([]ringPoint, 0, len(names)*vnodes)
	for si, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(opts.Seed, name, v), shard: si})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return r.shards[a.shard] < r.shards[b.shard]
	})
	return r, nil
}

// Owner returns the shard owning a tenant.
func (r *Ring) Owner(tenant string) string {
	h := tenantHash(r.seed, tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// Shards returns the sorted shard names.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// VNodes returns the virtual-node count per shard.
func (r *Ring) VNodes() int { return r.vnodes }

// Seed returns the placement seed.
func (r *Ring) Seed() uint64 { return r.seed }

// Join returns a new ring with one shard added; the original is
// unchanged. By consistent-hash construction, only tenants falling on
// arcs the new shard's points split move — everything else keeps its
// owner (RingJoinMinimalMovement proves it).
func (r *Ring) Join(shard string) (*Ring, error) {
	return NewRing(append(r.Shards(), shard), RingOptions{VNodes: r.vnodes, Seed: r.seed})
}

// Encode returns the canonical binary form: magic, version, seed,
// vnodes, then the sorted shard names, with a CRC32 trailer. Canonical
// means equal topologies encode to equal bytes, so ID doubles as a
// topology fingerprint.
func (r *Ring) Encode() []byte {
	buf := make([]byte, 0, 32+len(r.shards)*16)
	buf = append(buf, ringMagic...)
	buf = append(buf, ringVersion)
	buf = binary.BigEndian.AppendUint64(buf, r.seed)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.vnodes))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.shards)))
	for _, name := range r.shards {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
	}
	return frame.Seal(buf)
}

// ID returns the ring's content address: an FNV-1a 64 over the
// canonical encoding. Router and shards exchange IDs to verify they
// agree on topology before trusting each other's routing decisions.
func (r *Ring) ID() string {
	h := uint64(fnvOffset)
	for _, b := range r.Encode() {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return fmt.Sprintf("ring:%016x", h)
}

// DecodeRing parses and validates a canonical encoding, rejecting
// anything torn, corrupt, or non-canonical — a router must never route
// on a topology it cannot re-derive bit-for-bit.
func DecodeRing(data []byte) (*Ring, error) {
	if len(data) < len(ringMagic)+1+8+4+4+4 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrRingCorrupt, len(data))
	}
	body, err := frame.Open(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRingCorrupt, err)
	}
	if string(body[:len(ringMagic)]) != ringMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrRingCorrupt)
	}
	body = body[len(ringMagic):]
	if body[0] != ringVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrRingCorrupt, body[0])
	}
	seed := binary.BigEndian.Uint64(body[1:9])
	vnodes := binary.BigEndian.Uint32(body[9:13])
	count := binary.BigEndian.Uint32(body[13:17])
	if vnodes == 0 || vnodes > 1<<20 {
		return nil, fmt.Errorf("%w: vnodes %d", ErrRingCorrupt, vnodes)
	}
	if count == 0 || count > maxRingShards {
		return nil, fmt.Errorf("%w: shard count %d", ErrRingCorrupt, count)
	}
	body = body[17:]
	shards := make([]string, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(body) < 2 {
			return nil, fmt.Errorf("%w: truncated shard table", ErrRingCorrupt)
		}
		n := int(binary.BigEndian.Uint16(body))
		body = body[2:]
		if n == 0 || len(body) < n {
			return nil, fmt.Errorf("%w: truncated shard name", ErrRingCorrupt)
		}
		shards = append(shards, string(body[:n]))
		body = body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrRingCorrupt, len(body))
	}
	for i := 1; i < len(shards); i++ {
		if shards[i-1] >= shards[i] {
			return nil, fmt.Errorf("%w: shard names not sorted-unique", ErrRingCorrupt)
		}
	}
	r, err := NewRing(shards, RingOptions{VNodes: int(vnodes), Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRingCorrupt, err)
	}
	return r, nil
}

// FNV-1a 64, the project-standard content hash (same constants as the
// fleetsim trace digest and targetset corpus IDs).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// mix64 is a 64-bit finalizer (murmur3's fmix64): FNV-1a alone has
// weak high-bit avalanche over near-identical inputs like "s0"·vnode 4
// vs "s0"·vnode 5, which clusters ring points into short arcs and
// starves shards. The finalizer spreads them uniformly.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func pointHash(seed uint64, shard string, vnode int) uint64 {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seed)
	binary.BigEndian.PutUint64(b[8:], uint64(vnode))
	h := fnvBytes(fnvOffset, b[:8])
	h = fnvBytes(h, []byte(shard))
	h = fnvBytes(h, []byte{0}) // separator: ("ab","c"·1) ≠ ("a","bc"·1)
	return mix64(fnvBytes(h, b[8:]))
}

func tenantHash(seed uint64, tenant string) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	h := fnvBytes(fnvOffset, b[:])
	return mix64(fnvBytes(h, []byte(tenant)))
}
