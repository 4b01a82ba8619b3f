package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hetgc/hetgc/internal/clustercfg"
	"github.com/hetgc/hetgc/internal/elastic"
	"github.com/hetgc/hetgc/internal/obs"
	"github.com/hetgc/hetgc/internal/straggler"
)

// oneStraggler holds back one member per iteration (member iter mod m): every
// third iteration it never arrives, otherwise it arrives Delay seconds late.
type oneStraggler struct{ delay float64 }

func (o oneStraggler) Delays(iter, m int, _ *rand.Rand) []float64 {
	out := make([]float64, m)
	out[iter%m] = o.delay
	if iter%3 == 0 {
		out[iter%m] = math.Inf(1)
	}
	return out
}

// threeGroups is a nine-worker fleet of three speeds in three coding groups
// under transient interference, with a speed step, a kill and a join.
func threeGroups() ElasticSimConfig {
	rates := []float64{300, 100, 200, 300, 100, 200, 300, 100, 200}
	return ElasticSimConfig{
		K: 18, S: 1, GroupSize: 3,
		InitialRates: rates,
		Estimates:    rates,
		Injector:     straggler.Transient{Prob: 0.2, Mean: 0.02},
		Events: []ChurnEvent{
			{Iter: 3, Kind: SpeedStep, Member: 2, Factor: 0.25},
			{Iter: 5, Kind: Kill, Member: 4},
			{Iter: 7, Kind: Join, Rate: 250},
		},
		Iterations:      10,
		Alpha:           0.5,
		DriftThreshold:  0.4,
		MinObservations: 2,
		CooldownIters:   2,
		Seed:            9,
	}
}

// simTelemetry is what a scrape of a simulated run shows: replans by reason,
// roster events by kind and group, and erased member spans by reason.
type simTelemetry struct {
	replans, roster, erasures map[string]int
}

// scrape reads tel back the way an operator would: counters from the text
// exposition and roster events from the journal. It also checks the run
// recorded one iteration and one trace per iteration, in order.
func scrape(t *testing.T, tel *obs.Metrics, iters int) simTelemetry {
	t.Helper()
	if n := tel.Iterations.Value(); n != uint64(iters) {
		t.Fatalf("iterations counter %d, want %d", n, iters)
	}
	traces := tel.Tracer().Recent(0)
	if len(traces) != iters {
		t.Fatalf("%d traces for %d iterations", len(traces), iters)
	}
	for i, tr := range traces {
		if tr.Iter != i {
			t.Fatalf("trace %d is for iteration %d", i, tr.Iter)
		}
	}
	got := simTelemetry{replans: map[string]int{}, roster: map[string]int{}, erasures: map[string]int{}}
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		var into map[string]int
		switch {
		case strings.HasPrefix(line, obs.MReplansTotal+"{"):
			into = got.replans
		case strings.HasPrefix(line, obs.MErasuresTotal+"{"):
			into = got.erasures
		default:
			continue
		}
		_, rest, _ := strings.Cut(line, `reason="`)
		reason, _, _ := strings.Cut(rest, `"`)
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("scrape line %q: %v", line, err)
		}
		into[reason] += n
	}
	for _, ev := range tel.Journal().Recent(0) {
		switch ev.Kind {
		case obs.EvJoin, obs.EvRejoin, obs.EvDeath:
			got.roster[fmt.Sprintf("%s/%d", ev.Kind, ev.Group)]++
		}
	}
	return got
}

// tally counts replan events by reason.
func tally(reasons []string) map[string]int {
	out := map[string]int{}
	for _, r := range reasons {
		out[r]++
	}
	return out
}

// TestSimTelemetry runs churn and a straggler injector through each
// simulator loop with a bound registry, and pins what the scrape shows.
func TestSimTelemetry(t *testing.T) {
	cases := []struct {
		name  string
		iters int
		run   func(tel *obs.Metrics) (reasons []string, err error)
		want  simTelemetry
	}{{
		name:  "flat",
		iters: 36,
		run: func(tel *obs.Metrics) ([]string, error) {
			cfg := churnScenario()
			cfg.Injector = oneStraggler{delay: 0.05}
			cfg.TelemetryConfig = clustercfg.TelemetryConfig{Obs: tel}
			res, err := RunElastic(cfg)
			if err != nil {
				return nil, err
			}
			var reasons []string
			for _, ev := range res.Replans {
				reasons = append(reasons, ev.Reason)
			}
			return reasons, nil
		},
		want: simTelemetry{
			replans:  map[string]int{"initial": 1, "churn": 3, "drift": 3},
			roster:   map[string]int{"join/0": 1, "death/0": 1, "rejoin/0": 1},
			erasures: map[string]int{"straggler": 24, "dead": 9},
		},
	}, {
		// A group covering the fleet is the flat run: no tree, and the times
		// and the scrape of GroupSize 0.
		name:  "one group",
		iters: 36,
		run: func(tel *obs.Metrics) ([]string, error) {
			cfg := churnScenario()
			cfg.Injector = oneStraggler{delay: 0.05}
			flat, err := RunElastic(cfg)
			if err != nil {
				return nil, err
			}
			cfg.GroupSize = len(cfg.InitialRates)
			cfg.TelemetryConfig = clustercfg.TelemetryConfig{Obs: tel}
			res, err := RunElastic(cfg)
			if err != nil {
				return nil, err
			}
			if res.Groups != 1 || res.Depth != 0 || !reflect.DeepEqual(res.Times, flat.Times) {
				return nil, fmt.Errorf("%d groups, depth %d, times %v: want 1, 0 and %v", res.Groups, res.Depth, res.Times, flat.Times)
			}
			var reasons []string
			for _, ev := range res.Replans {
				reasons = append(reasons, ev.Reason)
			}
			return reasons, nil
		},
		want: simTelemetry{
			replans:  map[string]int{"initial": 1, "churn": 3, "drift": 3},
			roster:   map[string]int{"join/0": 1, "death/0": 1, "rejoin/0": 1},
			erasures: map[string]int{"straggler": 24, "dead": 9},
		},
	}, {
		name:  "sharded",
		iters: 10,
		run: func(tel *obs.Metrics) ([]string, error) {
			cfg := threeGroups()
			cfg.Injector = oneStraggler{delay: 0.05}
			cfg.TelemetryConfig = clustercfg.TelemetryConfig{Obs: tel}
			res, err := RunElastic(cfg)
			if err != nil {
				return nil, err
			}
			var reasons []string
			for _, ev := range res.Replans {
				reasons = append(reasons, ev.Reason)
			}
			return reasons, nil
		},
		// Group masters ingest every finite arrival in the sharded loop, so
		// only the members that never arrive are erased.
		want: simTelemetry{
			replans:  map[string]int{"initial": 3, "churn": 2, "drift": 1},
			roster:   map[string]int{"death/1": 1, "join/1": 1},
			erasures: map[string]int{"dead": 4},
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tel := obs.New()
			reasons, err := tc.run(tel)
			if err != nil {
				t.Fatal(err)
			}
			got := scrape(t, tel, tc.iters)
			if !reflect.DeepEqual(got.replans, tally(reasons)) {
				t.Fatalf("replans counter %v, result %v", got.replans, tally(reasons))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("scrape %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestShardedSimPinned pins a three-group run's trajectory to the bit:
// group-local epochs, the slowest group setting the pace, and the join
// landing in the group the kill left short.
func TestShardedSimPinned(t *testing.T) {
	res, err := RunElastic(threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	wantTimes := []float64{0.02, 0.02, 0.02, 0.02, 0.02, 0.03281368950432109, 0.03, 0.027120426083694794, 0.025, 0.025}
	wantGroupTimes := [][]float64{
		{0.02, 0.02, 0.02}, {0.02, 0.02, 0.02}, {0.02, 0.02, 0.02}, {0.02, 0.02, 0.02}, {0.02, 0.02, 0.02},
		{0.03281368950432109, 0.03, 0.02}, {0.025, 0.03, 0.02}, {0.027120426083694794, 0.025, 0.02},
		{0.025, 0.025, 0.02}, {0.025, 0.025, 0.02},
	}
	wantEpochs := [][]int{
		{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0},
		{1, 1, 0}, {1, 1, 0}, {1, 2, 0}, {1, 2, 0}, {1, 2, 0},
	}
	wantReplans := []GroupReplanEvent{
		{Group: 0, ReplanEvent: elastic.ReplanEvent{Iter: 0, Epoch: 0, Reason: "initial", Members: 3}},
		{Group: 1, ReplanEvent: elastic.ReplanEvent{Iter: 0, Epoch: 0, Reason: "initial", Members: 3}},
		{Group: 2, ReplanEvent: elastic.ReplanEvent{Iter: 0, Epoch: 0, Reason: "initial", Members: 3}},
		{Group: 0, ReplanEvent: elastic.ReplanEvent{Iter: 5, Epoch: 1, Reason: "drift", Members: 3, Imbalance: 1.8281260204585856}},
		{Group: 1, ReplanEvent: elastic.ReplanEvent{Iter: 5, Epoch: 1, Reason: "churn", Members: 2, Imbalance: 0.5}},
		{Group: 1, ReplanEvent: elastic.ReplanEvent{Iter: 7, Epoch: 2, Reason: "churn", Members: 3, Imbalance: 1.5}},
	}
	wantCounts := []int{9, 9, 9, 9, 9, 8, 8, 9, 9, 9}
	if !reflect.DeepEqual(res.Times, wantTimes) {
		t.Errorf("times %v, want %v", res.Times, wantTimes)
	}
	if !reflect.DeepEqual(res.GroupTimes, wantGroupTimes) {
		t.Errorf("group times %v, want %v", res.GroupTimes, wantGroupTimes)
	}
	if !reflect.DeepEqual(res.Epochs, wantEpochs) {
		t.Errorf("epochs %v, want %v", res.Epochs, wantEpochs)
	}
	if !reflect.DeepEqual(res.Replans, wantReplans) {
		t.Errorf("replans %+v, want %+v", res.Replans, wantReplans)
	}
	if !reflect.DeepEqual(res.MemberCounts, wantCounts) {
		t.Errorf("member counts %v, want %v", res.MemberCounts, wantCounts)
	}
}
