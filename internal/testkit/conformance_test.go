// The conformance, recovery and HA tables at the one-group layout: the flat
// cluster. internal/shard runs the same tables at the grouped layout. The
// one-group run lives here, beside the harness, so the scripted workers and
// scenario checks are exercised by their own package's test binary.
package testkit_test

import (
	"testing"

	"github.com/hetgc/hetgc/internal/testkit"
)

func TestConformanceFlat(t *testing.T) { testkit.RunConformance(t, testkit.OneGroup) }

func TestRecoveryConformanceFlat(t *testing.T) { testkit.RunRecoveryConformance(t, testkit.OneGroup) }

func TestHAConformanceFlat(t *testing.T) { testkit.RunHAConformance(t, testkit.OneGroup) }
