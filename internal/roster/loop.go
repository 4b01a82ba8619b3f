package roster

import (
	"fmt"
	"time"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/grad"
	"github.com/hetgc/hetgc/internal/obs"
)

// Loop is the group BSP iteration over one Engine — the paper's master loop,
// once: replan at the iteration boundary when the controller asks, broadcast,
// collect until the code decodes, migrate and retry when the epoch cannot
// complete, combine. A root of one group runs it as its whole collect; a
// root of more groups runs it once per group every iteration. It belongs to the
// single run-loop goroutine that drives the engine.
type Loop struct {
	Eng *Engine
	// IterTimeout bounds one collect attempt; MaxRetries bounds the forced
	// migrate-and-retry attempts of a single iteration.
	IterTimeout time.Duration
	MaxRetries  int
	// Fail is the caller's sentinel, wrapped around every failure of the
	// iteration policy (a migration that cannot plan, retries exhausted).
	Fail error

	// Plan is the current plan. Nil forces a migration before the next
	// broadcast: a group master retrying an iteration it failed migrates to
	// its live membership first.
	Plan *elastic.Plan
	// Stats accumulates the fencing decisions of every collect.
	Stats Stats
	// Gather and Combine are the wall seconds the last completed iteration
	// spent between its first broadcast and the decodable collect, and in
	// the combine.
	Gather, Combine float64

	cache obs.CacheTracker
}

// migrate moves the engine to a fresh plan.
func (l *Loop) migrate(iter int, reason string) error {
	plan, err := l.Eng.Migrate(iter, reason)
	if err != nil {
		return fmt.Errorf("%w: %w", l.Fail, err)
	}
	l.Plan = plan
	return nil
}

// Iteration runs one iteration and combines the decoded gradient sum into
// sum (len(params) elements, the caller's buffer); Plan.Epoch is then the
// epoch it decoded under. The broadcast, collect and decode phases are timed
// on sc and the stitched member child spans — full contributions plus every
// partial erased across the attempts — attached to it; with a nil scope (a
// group master: the root's trace children are the groups themselves) the
// member spans feed the attribution families directly.
func (l *Loop) Iteration(sc *obs.IterScope, iter int, params []float64, sum grad.Gradient) error {
	eng, tel := l.Eng, l.Eng.cfg.Obs
	if replan, reason := eng.ShouldReplan(iter); replan || l.Plan == nil {
		if !replan {
			reason = obs.ReasonChurn // a retry after a failed attempt
		}
		if err := l.migrate(iter, reason); err != nil {
			return err
		}
	}
	start := time.Now()
	for retries := 0; ; {
		// The trace carries the epoch the iteration completes under, in its
		// context identifier too: each attempt restamps both.
		sc.SetEpoch(l.Plan.Epoch)
		sc.SetTraceID(eng.traceID(l.Plan, iter))
		sc.Phase(obs.PhaseBroadcast)
		eng.BroadcastParams(l.Plan, iter, params)
		sc.Phase(obs.PhaseCollect)
		coeffs, coded, ok := eng.Collect(l.Plan, iter, len(params), l.IterTimeout, &l.Stats)
		if !ok {
			// The current epoch cannot complete (timeout or fatal deaths):
			// migrate to the live membership and retry this iteration.
			if retries++; retries > l.MaxRetries {
				return fmt.Errorf("%w: iteration %d undecodable after %d migrations", l.Fail, iter, retries-1)
			}
			if err := l.migrate(iter, obs.ReasonChurn); err != nil {
				return err
			}
			continue
		}
		contribs := eng.TakeContribs(iter)
		if sc != nil {
			sc.AddMembers(contribs)
		} else {
			for _, ms := range contribs {
				tel.OnMemberSpan(ms)
			}
		}
		sc.Phase(obs.PhaseDecode)
		combineStart := time.Now()
		l.Gather = combineStart.Sub(start).Seconds()
		if err := grad.CombineInto(sum, coeffs, coded); err != nil {
			return fmt.Errorf("iteration %d combine: %w", iter, err)
		}
		eng.Release(coded)
		l.Combine = time.Since(combineStart).Seconds()
		if tel != nil {
			cs := l.Plan.Strategy.DecodeCacheStats()
			l.cache.Fold(tel, l.Plan.Strategy, cs.Hits, cs.Misses)
		}
		return nil
	}
}
