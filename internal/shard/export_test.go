package shard

import (
	"time"

	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
)

// GroupLoop hosts loop as a coding group's master, as NewRoot does, and
// returns the group's iteration loop and its root-tier child span for the
// iteration the loop last completed.
func GroupLoop(loop roster.Loop) (*roster.Loop, func(start time.Time) obs.MemberSpan) {
	gr := &group{loop: loop}
	return &gr.loop, gr.span
}
