package ha

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hetgc/hetgc/internal/checkpoint"
	"github.com/hetgc/hetgc/internal/clustercfg"
)

// StandbyConfig parameterises a warm standby.
type StandbyConfig struct {
	// DurabilityConfig names the checkpoint directory (journal + snapshots +
	// lease) the standby tails — typically shared storage with the active
	// root. SnapshotEvery and Resume are ignored: the standby only reads.
	clustercfg.DurabilityConfig
	// Poll is the tail/lease polling interval (default 50ms).
	Poll time.Duration
	// Grace is extra slack past the token's expiry before the root is
	// declared dead (absorbs clock skew between root and standby; default
	// one Poll).
	Grace time.Duration
}

// Promotion is the standby's handoff to the new root: the deposed token and
// the hot durable state as of the last tail. The standby deliberately does
// NOT write the lease itself — the promoted master's own Acquire claims
// generation Deposed.Gen+1 together with its listen address, so the token
// always points at a live, dialable root.
type Promotion struct {
	// Deposed is the expired token of the root being replaced.
	Deposed *Token
	// State is the recovered durable state (nil when the directory held no
	// decodable checkpoint yet — a takeover from scratch).
	State *checkpoint.State
	// Tails counts how many times the standby refreshed its hot copy while
	// waiting — observability for "how warm was the standby".
	Tails int
}

// Standby tails a root's checkpoint directory, maintaining a hot copy of
// the params/optimizer/controller state, and detects lease expiry. Run it in
// its own goroutine; when it returns a Promotion, construct a resumed master
// over the same directory to take over.
type Standby struct {
	cfg StandbyConfig

	mu       sync.Mutex
	state    *checkpoint.State
	tails    int
	lastIter int
}

// NewStandby builds a standby over the configured checkpoint directory.
func NewStandby(cfg StandbyConfig) *Standby {
	if cfg.Poll <= 0 {
		cfg.Poll = 50 * time.Millisecond
	}
	if cfg.Grace <= 0 {
		cfg.Grace = cfg.Poll
	}
	return &Standby{cfg: cfg, lastIter: -1}
}

// LastIter reports the highest durable iteration the standby has tailed
// (-1 before the first decodable state).
func (s *Standby) LastIter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastIter
}

// refresh re-recovers the durable state. A directory with no checkpoint yet
// is not an error — the standby simply has nothing to be warm about.
func (s *Standby) refresh() error {
	st, err := checkpoint.Recover(s.cfg.CheckpointDir)
	if err != nil {
		if errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return nil
		}
		return err
	}
	s.mu.Lock()
	s.state = st
	s.tails++
	s.lastIter = st.LastIter
	s.mu.Unlock()
	return nil
}

// Run tails the directory until the active root's lease expires (promotion)
// or stop closes (returns nil, nil). While a token is missing the standby
// keeps waiting — there is no root to replace yet; while the token is live
// it keeps its hot copy fresh. Unreadable state or a corrupt lease file is
// surfaced typed rather than promoted over: taking over on garbage is how
// split brains start.
func (s *Standby) Run(stop <-chan struct{}) (*Promotion, error) {
	tick := time.NewTicker(s.cfg.Poll)
	defer tick.Stop()
	for {
		tok, err := ReadToken(s.cfg.CheckpointDir)
		switch {
		case errors.Is(err, ErrNoLease):
			// No root has ever claimed this directory (or a legacy run
			// without HA owns it): nothing to stand by for yet.
		case err != nil:
			return nil, fmt.Errorf("ha standby: %w", err)
		case tok.Expired(time.Now().Add(-s.cfg.Grace)):
			// The root missed its renewal window: refresh once more so the
			// promotion hands over the freshest durable state, then report.
			if err := s.refresh(); err != nil {
				return nil, fmt.Errorf("ha standby: final tail: %w", err)
			}
			s.mu.Lock()
			prom := &Promotion{Deposed: tok, State: s.state, Tails: s.tails}
			s.mu.Unlock()
			return prom, nil
		}
		if err := s.refresh(); err != nil {
			return nil, fmt.Errorf("ha standby: tail: %w", err)
		}
		select {
		case <-stop:
			return nil, nil
		case <-tick.C:
		}
	}
}
