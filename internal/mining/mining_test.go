package mining

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"testing"
)

func header() Header {
	h := Header{Version: 2, Time: 1393000000, Bits: 0x1d00ffff}
	for i := range h.PrevBlock {
		h.PrevBlock[i] = byte(i)
	}
	for i := range h.MerkleRoot {
		h.MerkleRoot[i] = byte(255 - i)
	}
	return h
}

func TestMarshalLayout(t *testing.T) {
	h := header()
	h.Nonce = 0xdeadbeef
	buf := h.Marshal()
	if binary.LittleEndian.Uint32(buf[0:]) != 2 {
		t.Error("version")
	}
	if buf[4] != 0 || buf[5] != 1 {
		t.Error("prev block")
	}
	if binary.LittleEndian.Uint32(buf[76:]) != 0xdeadbeef {
		t.Error("nonce")
	}
}

func TestPoWMatchesStdlib(t *testing.T) {
	h := header()
	h.Nonce = 12345
	buf := h.Marshal()
	first := sha256.Sum256(buf[:])
	want := sha256.Sum256(first[:])
	if h.PoW() != want {
		t.Error("PoW mismatch vs crypto/sha256")
	}
}

func TestMineFindsNonce(t *testing.T) {
	h := header()
	// Difficulty 12 bits: expected ~4096 attempts.
	nonce, ok, err := Mine(context.Background(), h, 12, 0, 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no nonce found in 2^20 range at 12 bits")
	}
	h.Nonce = nonce
	if !h.MeetsDifficulty(12) {
		t.Errorf("winning nonce %d does not meet difficulty", nonce)
	}
}

func TestMineExhaustsWithoutSolution(t *testing.T) {
	h := header()
	// 60 leading zero bits in a 2^12 range: essentially impossible.
	_, ok, err := Mine(context.Background(), h, 60, 0, 1<<12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("found a 60-bit nonce in 4096 tries — check the difficulty test")
	}
}

func TestMineValidation(t *testing.T) {
	h := header()
	if _, _, err := Mine(context.Background(), h, -1, 0, 10, 1); err == nil {
		t.Error("negative difficulty accepted")
	}
	if _, _, err := Mine(context.Background(), h, 10, 0, 1<<33, 1); err == nil {
		t.Error("oversized nonce range accepted")
	}
}

func TestNonceEnum(t *testing.T) {
	e := &nonceEnum{tmpl: header()}
	if err := e.Seek(big.NewInt(100)); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(e.Candidate()[76:]); got != 100 {
		t.Errorf("nonce = %d", got)
	}
	if !e.Next() {
		t.Fatal("Next failed")
	}
	if got := binary.LittleEndian.Uint32(e.Candidate()[76:]); got != 101 {
		t.Errorf("nonce after next = %d", got)
	}
	if err := e.Seek(new(big.Int).Lsh(big.NewInt(1), 33)); err == nil {
		t.Error("oversized seek accepted")
	}
	// Exhaustion at the top of the nonce space.
	if err := e.Seek(new(big.Int).SetUint64(1<<32 - 1)); err != nil {
		t.Fatal(err)
	}
	if e.Next() {
		t.Error("Next past the last nonce")
	}
}

// TestPoolSharesProportionalToHashrate: a pool round over miners of
// unequal hashrate solves the block with a valid nonce, and each miner's
// reward is its fraction of the shares counted, the rewards summing to 1.
// Hashrate only sizes each miner's slice of the nonce space; both miners
// run the same number of goroutines, so the shares counted before an
// early solve split about evenly, and the test asserts no ratio.
func TestPoolSharesProportionalToHashrate(t *testing.T) {
	pool := &Pool{Template: header(), Difficulty: 18, ShareDifficulty: 7}
	miners := []*Miner{
		{Name: "big", Hashrate: 3},
		{Name: "small", Hashrate: 1},
	}
	res, err := pool.Run(context.Background(), miners, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("pool did not solve an 18-bit block over the full nonce space")
	}
	h := pool.Template
	h.Nonce = res.WinningNonce
	if !h.MeetsDifficulty(pool.Difficulty) {
		t.Error("winning nonce invalid")
	}
	if res.TotalShares == 0 {
		t.Fatal("no shares recorded")
	}
	var shares int
	var sum float64
	for _, m := range miners {
		shares += m.Shares
		if want := float64(m.Shares) / float64(res.TotalShares); res.Rewards[m.Name] != want {
			t.Errorf("%s: reward %v for %d of %d shares, want %v", m.Name, res.Rewards[m.Name], m.Shares, res.TotalShares, want)
		}
		sum += res.Rewards[m.Name]
	}
	if shares != res.TotalShares || len(res.Rewards) != len(miners) {
		t.Errorf("miners hold %d shares and %d rewards; the pool counted %d shares", shares, len(res.Rewards), res.TotalShares)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("rewards sum to %v", sum)
	}
}

func TestPoolValidation(t *testing.T) {
	pool := &Pool{Template: header(), Difficulty: 8, ShareDifficulty: 10}
	if _, err := pool.Run(context.Background(), []*Miner{{Name: "m", Hashrate: 1}}, 1); err == nil {
		t.Error("share difficulty above block difficulty accepted")
	}
	pool.ShareDifficulty = 4
	if _, err := pool.Run(context.Background(), nil, 1); err == nil {
		t.Error("no miners accepted")
	}
	if _, err := pool.Run(context.Background(), []*Miner{{Name: "m"}}, 1); err == nil {
		t.Error("zero hashrate accepted")
	}
}
