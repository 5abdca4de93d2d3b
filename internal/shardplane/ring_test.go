package shardplane

import (
	"encoding/hex"
	"fmt"
	"testing"
)

func ringTenants(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%04d", i)
	}
	return out
}

func TestRingDeterministicPlacement(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3"}
	a, err := NewRing(shards, RingOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A permuted shard list is the same topology: same ID, same owners.
	b, err := NewRing([]string{"s3", "s1", "s0", "s2"}, RingOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatalf("permuted shard list changed ring ID: %s vs %s", a.ID(), b.ID())
	}
	for _, tn := range ringTenants(500) {
		if ao, bo := a.Owner(tn), b.Owner(tn); ao != bo {
			t.Fatalf("tenant %s: owner %s vs %s", tn, ao, bo)
		}
	}
	// A different seed is a different placement for at least one tenant.
	c, err := NewRing(shards, RingOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == a.ID() {
		t.Fatal("seed change did not change ring ID")
	}
	moved := 0
	for _, tn := range ringTenants(500) {
		if a.Owner(tn) != c.Owner(tn) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed change moved no tenants")
	}
}

func TestRingPlacementCoversAllShards(t *testing.T) {
	r, err := NewRing([]string{"s0", "s1", "s2", "s3"}, RingOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, tn := range ringTenants(2000) {
		counts[r.Owner(tn)]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 shards own tenants: %v", len(counts), counts)
	}
	for sh, n := range counts {
		if n < 100 {
			t.Fatalf("shard %s owns only %d/2000 tenants (pathological imbalance): %v", sh, n, counts)
		}
	}
}

func TestRingCodecRoundTrip(t *testing.T) {
	r, err := NewRing([]string{"alpha", "beta", "gamma"}, RingOptions{VNodes: 32, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	enc := r.Encode()
	dec, err := DecodeRing(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID() != r.ID() {
		t.Fatalf("round-trip changed ID: %s vs %s", dec.ID(), r.ID())
	}
	if got, want := string(dec.Encode()), string(enc); got != want {
		t.Fatal("round-trip is not canonical")
	}
	for _, tn := range ringTenants(200) {
		if dec.Owner(tn) != r.Owner(tn) {
			t.Fatalf("tenant %s: decoded ring disagrees on owner", tn)
		}
	}
}

func TestRingCodecRejectsCorruption(t *testing.T) {
	r, err := NewRing([]string{"s0", "s1", "s2"}, RingOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := r.Encode()
	if _, err := DecodeRing(good); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 3 {
			if _, err := DecodeRing(good[:len(good)-cut]); err == nil {
				t.Fatalf("truncation by %d accepted", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			if _, err := DecodeRing(bad); err == nil {
				t.Fatalf("flip at byte %d accepted", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeRing(append(append([]byte(nil), good...), 0xff)); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeRing(nil); err == nil {
			t.Fatal("empty encoding accepted")
		}
	})
}

// TestRingJoinMinimalMovement is the acceptance property: adding a
// shard moves ONLY tenants whose new owner is the joining shard —
// nothing reshuffles between surviving shards — and the moved fraction
// is near the ideal 1/(n+1).
func TestRingJoinMinimalMovement(t *testing.T) {
	before, err := NewRing([]string{"s0", "s1", "s2", "s3"}, RingOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.Join("s4")
	if err != nil {
		t.Fatal(err)
	}
	tenants := ringTenants(2000)
	moved := 0
	for _, tn := range tenants {
		was, is := before.Owner(tn), after.Owner(tn)
		if was == is {
			continue
		}
		moved++
		if is != "s4" {
			t.Fatalf("tenant %s moved %s -> %s: movement not confined to the joining shard", tn, was, is)
		}
	}
	if moved == 0 {
		t.Fatal("join moved no tenants at all")
	}
	// Ideal is 1/5 = 400 of 2000; allow generous variance but catch a
	// rebuild-everything regression.
	if moved > len(tenants)*2/5 {
		t.Fatalf("join moved %d/%d tenants — far above the consistent-hash-minimal set", moved, len(tenants))
	}
}

func TestRingRejectsBadShardSets(t *testing.T) {
	if _, err := NewRing(nil, RingOptions{}); err == nil {
		t.Fatal("empty shard set accepted")
	}
	if _, err := NewRing([]string{"a", ""}, RingOptions{}); err == nil {
		t.Fatal("empty shard name accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, RingOptions{}); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
}

// TestRingEncodingGolden pins the canonical encoding and the content
// address against bytes captured before the CRC trailer moved into
// frame.Seal: routers and shards on either side of that change must
// keep agreeing on ring IDs.
func TestRingEncodingGolden(t *testing.T) {
	const want = "4b5352470100000000000000030000001000000003000273300002733100027332fca157af"
	r, err := NewRing([]string{"s0", "s1", "s2"}, RingOptions{VNodes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(r.Encode()); got != want {
		t.Errorf("ring encodes to %s, parent wrote %s", got, want)
	}
	if got := r.ID(); got != "ring:28b066d8d8c01a3e" {
		t.Errorf("ring ID %s changed", got)
	}
	raw, _ := hex.DecodeString(want)
	if back, err := DecodeRing(raw); err != nil || back.ID() != r.ID() {
		t.Errorf("parent's encoding decodes to %v, %v", back, err)
	}
}
