// The conformance, recovery and HA tables at the grouped layout. Worker slots
// are addressed group by group, so each scenario's scripted faults land
// inside one coding group and the invariants (migration, fencing, identity
// resumption, crash recovery, failover) are enforced on the group masters
// through the same roster engine the one-group root uses
// (internal/testkit runs the tables at that layout).
package shard_test

import (
	"testing"

	"github.com/hetgc/hetgc/internal/testkit"
)

func TestConformanceSharded(t *testing.T) { testkit.RunConformance(t, testkit.Grouped) }

func TestRecoveryConformanceSharded(t *testing.T) { testkit.RunRecoveryConformance(t, testkit.Grouped) }

func TestHAConformanceSharded(t *testing.T) { testkit.RunHAConformance(t, testkit.Grouped) }
