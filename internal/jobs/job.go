package jobs

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"keysearch/internal/cracker"
	"keysearch/internal/keyspace"
	"keysearch/internal/targetset"
)

// State is a job's lifecycle position.
type State int

// Job states. A job is admitted PENDING -> RUNNING by the scheduler,
// may bounce RUNNING <-> PAUSED (resume re-queues through PENDING so it
// passes admission control again), and ends in exactly one of the
// terminal states.
const (
	StatePending   State = iota + 1 // submitted, waiting for admission
	StateRunning                    // admitted, schedulable for leases
	StatePaused                     // excluded from scheduling, progress kept
	StateDone                       // keyspace exhausted or solution quota met
	StateFailed                     // unrecoverable error (reason recorded)
	StateCancelled                  // cancelled by the client
)

var stateNames = map[State]string{
	StatePending:   "pending",
	StateRunning:   "running",
	StatePaused:    "paused",
	StateDone:      "done",
	StateFailed:    "failed",
	StateCancelled: "cancelled",
}

// String names the state.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Valid reports whether the state is one of the defined values.
func (s State) Valid() bool { _, ok := stateNames[s]; return ok }

// Terminal reports whether no further transition is allowed.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MarshalText renders the state by name (JSON, WAL records).
func (s State) MarshalText() ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("jobs: invalid state %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText parses a state name; unknown names error so corrupted
// WAL records are rejected rather than replayed as zero states.
func (s *State) UnmarshalText(b []byte) error {
	for st, name := range stateNames {
		if name == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("jobs: unknown state %q", b)
}

// validTransition is the lifecycle graph. WAL replay enforces it, so a
// reordered or replayed record stream fails recovery instead of building
// an impossible job table.
func validTransition(from, to State) bool {
	if from.Terminal() {
		return false
	}
	switch from {
	case StatePending:
		return to == StateRunning || to == StatePaused || to == StateCancelled || to == StateFailed
	case StateRunning:
		return to == StatePaused || to == StateDone || to == StateFailed || to == StateCancelled
	case StatePaused:
		// Paused -> Done covers a job whose final in-flight lease commits
		// after the pause landed: pausing stops new leases, it does not
		// abandon completed work.
		return to == StatePending || to == StateDone || to == StateCancelled || to == StateFailed
	}
	return false
}

// Spec describes what a job searches: the same information the cluster
// wire protocol ships to workers, in API-friendly form.
type Spec struct {
	// Algorithm is the hash to invert: "md5" or "sha1".
	Algorithm string `json:"algorithm"`
	// Target is the hex digest to invert (single-target mode). Exactly one
	// of Target and Targets must be set.
	Target string `json:"target,omitempty"`
	// Targets is the multi-target digest corpus, hex-encoded: the job
	// reports every key in the space whose digest appears here (an audit
	// run over a leaked database). Workers pre-screen candidates with a
	// Bloom filter and exact-confirm against the sorted corpus
	// (internal/targetset), so cost stays flat in the corpus size.
	Targets []string `json:"targets,omitempty"`
	// Charset is the candidate alphabet.
	Charset string `json:"charset"`
	// MinLen/MaxLen bound the candidate length.
	MinLen int `json:"min_len"`
	MaxLen int `json:"max_len"`
	// MaxSolutions stops the job early after this many hits
	// (0 = exhaust the space).
	MaxSolutions int `json:"max_solutions,omitempty"`
	// Steal opts the job into adaptive work stealing: an idle executor
	// may split a straggler's in-flight lease at an interior boundary
	// and take the untested tail as a new lease. Manual drivers
	// (StartManual) split through Service.Steal; executor-loop services
	// with Options.Steal enabled do it live over the protocol-v4 shrink
	// handshake. It does not change what is searched, only who searches
	// it, so two specs that differ only here describe the same search.
	Steal bool `json:"steal,omitempty"`

	// h is the job's resolution, attached by the service to the Spec of
	// every lease it issues (see Handle). JSON never carries it.
	h *Handle
}

// MaxTargets caps the corpus cardinality a spec may carry (the encoded
// target set must also fit the wire codec's frame budget).
const MaxTargets = 1 << 20

// Validate checks the spec without building its corpus.
func (sp Spec) Validate() error {
	_, _, err := sp.parse()
	return err
}

// Space builds the job's keyspace.
func (sp Spec) Space() (*keyspace.Space, error) {
	cs, err := keyspace.NewCharset(sp.Charset)
	if err != nil {
		return nil, err
	}
	return keyspace.New(cs, sp.MinLen, sp.MaxLen, keyspace.PrefixMajor)
}

// CrackerJob materializes the spec into a runnable cracking job: the
// lease's shared one when the spec carries its job's handle, a fresh one
// otherwise.
func (sp Spec) CrackerJob() (*cracker.Job, error) {
	h, err := sp.Resolved()
	if err != nil {
		return nil, err
	}
	return h.job, nil
}

// parse is the one place a spec is decoded: the algorithm, the target or
// the corpus digests, and the space. It returns the cracker job without
// its corpus, and the raw digests (nil in single-target mode).
func (sp Spec) parse() (*cracker.Job, [][]byte, error) {
	alg, err := cracker.ParseAlgorithm(sp.Algorithm)
	if err != nil {
		return nil, nil, err
	}
	job := &cracker.Job{Algorithm: alg, Kind: cracker.KernelOptimized}
	var digests [][]byte
	switch {
	case len(sp.Targets) > 0:
		if sp.Target != "" {
			return nil, nil, fmt.Errorf("jobs: spec sets both target and targets")
		}
		if len(sp.Targets) > MaxTargets {
			return nil, nil, fmt.Errorf("jobs: %d targets exceed the %d cap", len(sp.Targets), MaxTargets)
		}
		digests = make([][]byte, len(sp.Targets))
		for i, t := range sp.Targets {
			d, err := hex.DecodeString(t)
			if err != nil || len(d) != alg.DigestSize() {
				return nil, nil, fmt.Errorf("jobs: bad %s digest %q at target %d", sp.Algorithm, t, i)
			}
			digests[i] = d
		}
	default:
		target, err := hex.DecodeString(sp.Target)
		if err != nil || len(target) != alg.DigestSize() {
			return nil, nil, fmt.Errorf("jobs: bad %s digest %q", sp.Algorithm, sp.Target)
		}
		job.Target = target
	}
	if job.Space, err = sp.Space(); err != nil {
		return nil, nil, err
	}
	return job, digests, nil
}

// Handle is a job's spec resolved once — parsed, a corpus built and
// encoded, the cracker job prepared — at the first lease that asks,
// outside the service lock. The service creates one per active job
// (activateLocked) and releases it when the job leaves the active set;
// every lease's Spec carries it, so executors share one immutable
// resolution instead of re-deriving it.
type Handle struct {
	spec Spec

	once     sync.Once
	job      *cracker.Job
	corpus   []byte
	corpusID uint64
	err      error

	mu       sync.Mutex
	released bool
	holds    map[any]func()
}

// Resolved returns the spec's handle, resolved: the job's own when the
// spec came with a lease, otherwise one resolved on the spot, owned by
// no job — released from birth, cached nowhere.
func (sp Spec) Resolved() (*Handle, error) {
	h := sp.h
	if h == nil {
		h = &Handle{spec: sp, released: true}
	}
	return h, h.resolve()
}

func (h *Handle) resolve() error {
	h.once.Do(func() {
		job, digests, err := h.spec.parse()
		if err == nil && digests != nil {
			job.Corpus, err = targetset.Build(digests, targetset.Options{})
			if err == nil {
				h.corpus = job.Corpus.Encode()
				h.corpusID = targetset.ID(h.corpus)
			}
		}
		if err == nil {
			err = job.Prepare()
		}
		if err == nil {
			h.job = job
		}
		h.err = err
	})
	return h.err
}

// Job is the built cracker job, shared by every lease of the job; it is
// safe for concurrent searches.
func (h *Handle) Job() *cracker.Job { return h.job }

// Corpus is the canonical encoding of the job's target set and its
// content ID (targetset.ID), what a remote worker needs to rebuild it;
// nil and 0 in single-target mode.
func (h *Handle) Corpus() ([]byte, uint64) { return h.corpus, h.corpusID }

// Hold ties a resource to the job's lifetime: the first Hold under a key
// runs acquire and keeps release to run when the handle is released;
// later Holds under the same key do nothing. On a released handle —
// every handle resolved for a Spec that carried none — Hold does nothing.
func (h *Handle) Hold(key any, acquire, release func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, held := h.holds[key]; held || h.released {
		return
	}
	acquire()
	h.holds[key] = release
}

// release ends the handle's life, running every Hold's release once.
func (h *Handle) release() {
	h.mu.Lock()
	holds := h.holds
	h.holds, h.released = nil, true
	h.mu.Unlock()
	for _, f := range holds {
		f()
	}
}

// Job is the externally visible snapshot of one job — what the API
// serves and the store returns. It is a copy; mutating it changes
// nothing.
type Job struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Spec     Spec   `json:"spec"`
	State    State  `json:"state"`
	// Reason annotates FAILED/CANCELLED states.
	Reason string `json:"reason,omitempty"`
	// Space is the keyspace size in decimal (arbitrarily large spaces
	// serialize exactly).
	Space string `json:"space"`
	// Tested counts identifiers whose results were gathered and
	// committed — exact coverage, never inflated by re-searched leases.
	Tested uint64 `json:"tested"`
	// Remaining is the uncommitted identifier count, decimal.
	Remaining string `json:"remaining"`
	// Found lists recovered keys.
	Found []string `json:"found,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	UpdatedAt   time.Time `json:"updated_at"`
}

// Done reports whether the job reached a terminal state.
func (j Job) Done() bool { return j.State.Terminal() }
