package fleetsim

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

func TestGenerateChurnDeterministic(t *testing.T) {
	opts := ChurnOptions{Horizon: 100, LeaveRate: 0.1, JoinRate: 0.2, CrashRate: 0.05, SlowRate: 0.3}
	a := GenerateChurn(42, 500, opts)
	b := GenerateChurn(42, 500, opts)
	if len(a) == 0 {
		t.Fatal("no events generated")
	}
	ea, eb := EncodeChurn(a), EncodeChurn(b)
	if !bytes.Equal(ea, eb) {
		t.Fatal("same seed produced different encoded schedules")
	}
	if c := GenerateChurn(43, 500, opts); bytes.Equal(ea, EncodeChurn(c)) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Sorted by time.
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule out of order at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
}

func TestChurnCodecRoundTrip(t *testing.T) {
	evs := GenerateChurn(7, 100, ChurnOptions{Horizon: 50, CrashRate: 0.2, SlowRate: 0.5, JoinRate: 0.3})
	blob := EncodeChurn(evs)
	got, err := DecodeChurn(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], evs[i])
		}
	}
	if !bytes.Equal(EncodeChurn(got), blob) {
		t.Fatal("re-encode is not byte-identical")
	}
	// Empty schedules round-trip too.
	if evs2, err := DecodeChurn(EncodeChurn(nil)); err != nil || len(evs2) != 0 {
		t.Fatalf("empty round-trip: %v, %d events", err, len(evs2))
	}
}

func TestChurnCodecRejectsDamage(t *testing.T) {
	blob := EncodeChurn(GenerateChurn(9, 50, ChurnOptions{Horizon: 10, SlowRate: 1}))
	cases := map[string][]byte{
		"truncated":   blob[:len(blob)-5],
		"empty":       {},
		"bad magic":   append([]byte("XXCH1"), blob[5:]...),
		"flipped bit": flipBit(blob, len(blob)/2),
		"bad trailer": flipBit(blob, len(blob)-1),
	}
	for name, b := range cases {
		if _, err := DecodeChurn(b); !errors.Is(err, ErrChurnCorrupt) {
			t.Errorf("%s: got %v, want ErrChurnCorrupt", name, err)
		}
	}
}

func flipBit(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

// FuzzChurnCodec: any blob either fails to decode or round-trips
// byte-identically; the decoder never panics or accepts garbage that
// re-encodes differently.
func FuzzChurnCodec(f *testing.F) {
	f.Add(EncodeChurn(nil))
	f.Add(EncodeChurn(GenerateChurn(1, 10, ChurnOptions{Horizon: 5, CrashRate: 0.5})))
	f.Add(EncodeChurn(GenerateChurn(2, 100, ChurnOptions{Horizon: 100, SlowRate: 1, JoinRate: 1, LeaveRate: 1})))
	f.Add([]byte("FSCH1junk"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		evs, err := DecodeChurn(blob)
		if err != nil {
			return
		}
		again := EncodeChurn(evs)
		if !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob does not round-trip: %d bytes in, %d out", len(blob), len(again))
		}
	})
}

// TestChurnEncodingGolden pins the schedule wire format against bytes
// captured before the CRC trailer moved into frame.Seal.
func TestChurnEncodingGolden(t *testing.T) {
	const want = "4653434831000000033fe0000000000000000000030300000000000000003ff400000000000000000001043fe00000000000004000000000000000000000030100000000000000004c8574a5"
	evs := []ChurnEvent{
		{At: 0.5, Worker: 3, Kind: ChurnCrash},
		{At: 1.25, Worker: 1, Kind: ChurnSlow, Factor: 0.5},
		{At: 2, Worker: 3, Kind: ChurnJoin},
	}
	if got := hex.EncodeToString(EncodeChurn(evs)); got != want {
		t.Errorf("schedule encodes to %s, parent wrote %s", got, want)
	}
	raw, _ := hex.DecodeString(want)
	if back, err := DecodeChurn(raw); err != nil || !reflect.DeepEqual(back, evs) {
		t.Errorf("parent's encoding decodes to %v, %v", back, err)
	}
}
