package core

import (
	"context"
	"errors"
	"math"

	"keysearch/internal/keyspace"
)

// ScoreFunc evaluates a candidate; lower is better. It is the §III.A
// variant where "the test function C returns 0 when it can confidently
// exclude a solution but ... 1 is no guarantee that a solution has been
// actually found": no single evaluation is conclusive, so the master must
// run a merge step over the per-node results.
type ScoreFunc func(candidate []byte) float64

// ScoreFactory returns an independent ScoreFunc per worker.
type ScoreFactory func() ScoreFunc

// Best is a candidate with its score.
type Best struct {
	Candidate []byte
	Score     float64
}

// merge keeps the better of two results (the paper's merge function for
// minimization: "the merge function would find the minimum cost among all
// the results of the participating nodes").
func (b *Best) merge(other Best) {
	if other.Candidate != nil && (b.Candidate == nil || other.Score < b.Score) {
		b.Candidate = append(b.Candidate[:0], other.Candidate...)
		b.Score = other.Score
	}
}

// SearchBest exhaustively minimizes score over the interval: every worker
// walks its chunks with the next operator keeping a private minimum, merged
// into the shared one after each chunk. Unlike Search there is no early
// exit — the minimum is only known once everything has been evaluated,
// which is exactly why the dispatch cost model gains the K_CM term.
func SearchBest(ctx context.Context, factory Factory, iv keyspace.Interval, newScore ScoreFactory, opt Options) (*Best, uint64, error) {
	if factory == nil || newScore == nil {
		return nil, 0, errors.New("core: nil factory or score factory")
	}
	p, err := newPool(factory, iv, opt)
	if err != nil {
		return nil, 0, err
	}
	best := &Best{Score: math.Inf(1)}
	tested := uint64(0)
	err = p.run(ctx, func() walkFunc {
		score := newScore()
		local := Best{Score: math.Inf(1)}
		return func(enum Enumerator, n uint64) bool {
			for i := uint64(0); i < n; i++ {
				cand := enum.Candidate()
				if s := score(cand); s < local.Score {
					local.Score = s
					local.Candidate = append(local.Candidate[:0], cand...)
				}
				if i+1 < n && !enum.Next() {
					p.errCh <- errors.New("core: enumerator exhausted early")
					return false
				}
			}
			p.mu.Lock()
			best.merge(local)
			tested += n
			p.mu.Unlock()
			return true
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, tested, err
	}
	if best.Candidate == nil {
		return nil, tested, errors.New("core: empty interval has no minimum")
	}
	return best, tested, nil
}

// MergeBest folds per-node minima into the global one — the master-side
// K_CM step when SearchBest runs distributed.
func MergeBest(parts ...*Best) *Best {
	out := &Best{Score: math.Inf(1)}
	for _, p := range parts {
		if p != nil {
			out.merge(*p)
		}
	}
	if out.Candidate == nil {
		return nil
	}
	return out
}
