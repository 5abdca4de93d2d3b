// Package fleetsim stress-tests the job service at fleet scale: it
// models 10⁵–10⁶ heterogeneous workers with seeded churn and drives
// the REAL jobs.Service — scheduler, WAL-backed store, lease
// accounting — through the discrete-event engine of internal/sim, so
// hours of fleet time and hundreds of thousands of scheduling
// decisions replay deterministically in seconds of host time. The
// same seed produces the same event trace, byte for byte.
package fleetsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"keysearch/internal/frame"
)

// ChurnKind classifies one fleet membership/perf event.
type ChurnKind uint8

// Churn event kinds. Join brings a down worker back (no-op when up),
// Leave drains a worker gracefully (it finishes its current lease),
// Crash drops a worker instantly (its lease is recovered by the
// service's lease timeout), Slow rescales a worker's throughput by
// Factor (which may be > 1: recovery is churn too).
const (
	ChurnJoin ChurnKind = iota + 1
	ChurnLeave
	ChurnCrash
	ChurnSlow
)

var churnNames = map[ChurnKind]string{
	ChurnJoin:  "join",
	ChurnLeave: "leave",
	ChurnCrash: "crash",
	ChurnSlow:  "slow",
}

// String names the kind.
func (k ChurnKind) String() string {
	if n, ok := churnNames[k]; ok {
		return n
	}
	return fmt.Sprintf("churn(%d)", uint8(k))
}

// Valid reports whether the kind is defined.
func (k ChurnKind) Valid() bool { _, ok := churnNames[k]; return ok }

// ChurnEvent is one scheduled perturbation of the fleet.
type ChurnEvent struct {
	At     float64   // virtual seconds from fleet start
	Worker uint32    // target worker index
	Kind   ChurnKind // what happens
	Factor float64   // Slow only: throughput multiplier
}

// ChurnOptions tune schedule generation. Rates are expected events
// per worker over the horizon, so doubling the fleet doubles the
// absolute churn, matching how real fleets fail.
type ChurnOptions struct {
	Horizon   float64 // virtual seconds the schedule spans
	LeaveRate float64 // graceful departures per worker
	JoinRate  float64 // rejoins per worker
	CrashRate float64 // hard crashes per worker
	SlowRate  float64 // throughput rescales per worker
	// SlowMin/SlowMax bound the Slow factor (defaults 0.2 / 1.5).
	SlowMin, SlowMax float64
}

func (o ChurnOptions) slowMin() float64 {
	if o.SlowMin <= 0 {
		return 0.2
	}
	return o.SlowMin
}

func (o ChurnOptions) slowMax() float64 {
	if o.SlowMax <= 0 {
		return 1.5
	}
	return o.SlowMax
}

// HasCrash reports whether the options can emit Crash events (which
// require the driven service to run a lease timeout).
func (o ChurnOptions) HasCrash() bool { return o.CrashRate > 0 }

// GenerateChurn builds a deterministic churn schedule: the same
// (seed, workers, opts) triple always yields the same events in the
// same order, which is the foundation of the replayable fleet traces.
// Events are sorted by time, then worker, then kind.
func GenerateChurn(seed int64, workers int, opts ChurnOptions) []ChurnEvent {
	if workers <= 0 || opts.Horizon <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	count := func(rate float64) int { return int(rate * float64(workers)) }
	var evs []ChurnEvent
	emit := func(n int, kind ChurnKind) {
		for i := 0; i < n; i++ {
			ev := ChurnEvent{
				At:     rng.Float64() * opts.Horizon,
				Worker: uint32(rng.Intn(workers)),
				Kind:   kind,
			}
			if kind == ChurnSlow {
				lo, hi := opts.slowMin(), opts.slowMax()
				ev.Factor = lo + rng.Float64()*(hi-lo)
			}
			evs = append(evs, ev)
		}
	}
	emit(count(opts.LeaveRate), ChurnLeave)
	emit(count(opts.JoinRate), ChurnJoin)
	emit(count(opts.CrashRate), ChurnCrash)
	emit(count(opts.SlowRate), ChurnSlow)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Worker != evs[j].Worker {
			return evs[i].Worker < evs[j].Worker
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs
}

// Churn schedule wire format: magic + count + fixed-width events +
// CRC32 trailer over everything before it. Fixed-width binary (not
// JSON) so "same seed → byte-identical schedule" is checkable with a
// byte compare and fuzzable without parser ambiguity.
const churnMagic = "FSCH1"

const churnEventSize = 8 + 4 + 1 + 8 // At, Worker, Kind, Factor

// ErrChurnCorrupt reports a schedule blob that fails validation.
var ErrChurnCorrupt = errors.New("fleetsim: corrupt churn schedule")

// EncodeChurn serializes a schedule.
func EncodeChurn(evs []ChurnEvent) []byte {
	buf := make([]byte, 0, len(churnMagic)+4+len(evs)*churnEventSize+4)
	buf = append(buf, churnMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(evs)))
	for _, ev := range evs {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.At))
		buf = binary.BigEndian.AppendUint32(buf, ev.Worker)
		buf = append(buf, byte(ev.Kind))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(ev.Factor))
	}
	return frame.Seal(buf)
}

// DecodeChurn parses and validates a schedule blob: magic, length,
// checksum, and per-event sanity (defined kind, finite non-negative
// time, finite factor). A valid blob round-trips byte-identically
// through EncodeChurn.
func DecodeChurn(b []byte) ([]ChurnEvent, error) {
	if len(b) < len(churnMagic)+4+4 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrChurnCorrupt, len(b))
	}
	if string(b[:len(churnMagic)]) != churnMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrChurnCorrupt)
	}
	body, err := frame.Open(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrChurnCorrupt, err)
	}
	n := binary.BigEndian.Uint32(b[len(churnMagic):])
	payload := body[len(churnMagic)+4:]
	if int64(len(payload)) != int64(n)*churnEventSize {
		return nil, fmt.Errorf("%w: %d events need %d payload bytes, have %d", ErrChurnCorrupt, n, int64(n)*churnEventSize, len(payload))
	}
	evs := make([]ChurnEvent, 0, n)
	for i := 0; i < int(n); i++ {
		p := payload[i*churnEventSize:]
		ev := ChurnEvent{
			At:     math.Float64frombits(binary.BigEndian.Uint64(p)),
			Worker: binary.BigEndian.Uint32(p[8:]),
			Kind:   ChurnKind(p[12]),
			Factor: math.Float64frombits(binary.BigEndian.Uint64(p[13:])),
		}
		if !ev.Kind.Valid() {
			return nil, fmt.Errorf("%w: event %d: unknown kind %d", ErrChurnCorrupt, i, p[12])
		}
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return nil, fmt.Errorf("%w: event %d: bad time %v", ErrChurnCorrupt, i, ev.At)
		}
		if math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) {
			return nil, fmt.Errorf("%w: event %d: bad factor", ErrChurnCorrupt, i)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}
