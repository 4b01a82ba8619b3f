package shard

import (
	"time"

	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/roster"
)

// GroupIter is what one group iteration leaves for its callers: the plan it
// decoded under, its gather and combine seconds, and the group's root-tier
// child span.
type GroupIter struct {
	Plan            *elastic.Plan
	Gather, Combine float64
	Span            func(start time.Time) obs.MemberSpan
}

// HostGroup hosts eng as a coding group's master under cfg, as NewRoot does,
// and returns the group's iteration: each call runs one, decoding the
// group's sum (α = 1) into sum.
func HostGroup(cfg Config, eng *roster.Engine) func(sc *obs.IterScope, iter int, params, sum []float64) (GroupIter, error) {
	gr := &group{eng: eng}
	return func(sc *obs.IterScope, iter int, params, sum []float64) (GroupIter, error) {
		err := gr.iterate(&cfg, sc, iter, 1, params, sum)
		return GroupIter{Plan: gr.plan, Gather: gr.gather, Combine: gr.combine, Span: gr.span}, err
	}
}
