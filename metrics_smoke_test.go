package hetgc_test

// Metrics smoke tests: each runtime trains a small loopback cluster with the
// full durable-state stack enabled (checkpoint dir + HA lease) while a
// telemetry server is live, scrapes /metrics *during* the run, and asserts
// after the run that every family the acceptance bar names carries a
// non-zero sample: iteration counters, per-worker throughput estimates,
// decode-cache hit rate, checkpoint snapshot activity and the lease
// generation. `make metrics-smoke` runs exactly these tests.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hetgc/hetgc"
)

// scrape fetches url and returns the exposition body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return string(b)
}

// familyMax returns the largest sample value of the family in an exposition
// body (samples are `name value` or `name{labels} value` lines), and whether
// any sample line was present at all.
func familyMax(body, family string) (float64, bool) {
	max, found := 0.0, false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // longer family sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		found = true
		if v > max {
			max = v
		}
	}
	return max, found
}

// requireNonZero asserts the family has at least one sample > 0.
func requireNonZero(t *testing.T, body, family string) {
	t.Helper()
	v, ok := familyMax(body, family)
	if !ok {
		t.Errorf("family %s: no samples in scrape", family)
		return
	}
	if v <= 0 {
		t.Errorf("family %s: max sample %v, want > 0", family, v)
	}
}

// watchDuringRun polls /metrics until it observes a scrape taken mid-training
// (non-zero iteration counter) or done is closed. It returns a flag that
// reports whether such a scrape succeeded.
func watchDuringRun(url string, done <-chan struct{}) *atomic.Bool {
	saw := &atomic.Bool{}
	go func() {
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := http.Get(url)
			if err != nil {
				continue
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if v, ok := familyMax(string(b), "hetgc_iterations_total"); ok && v > 0 {
				saw.Store(true)
				return
			}
		}
	}()
	return saw
}

// assertSmokeFamilies checks the acceptance-bar families on a final scrape.
func assertSmokeFamilies(t *testing.T, body string) {
	t.Helper()
	requireNonZero(t, body, "hetgc_iterations_total")
	requireNonZero(t, body, "hetgc_worker_throughput_estimate")
	requireNonZero(t, body, "hetgc_decode_cache_hit_ratio")
	requireNonZero(t, body, "hetgc_checkpoint_snapshot_seconds_count")
	requireNonZero(t, body, "hetgc_ha_lease_generation")
	// Age may legitimately round to ~0 right after a snapshot; presence is
	// what the scrape contract guarantees.
	if _, ok := familyMax(body, "hetgc_checkpoint_snapshot_age_seconds"); !ok {
		t.Error("family hetgc_checkpoint_snapshot_age_seconds: no samples in scrape")
	}
}

func TestMetricsSmokeElastic(t *testing.T) {
	const k, workers, iters = 8, 4, 16
	rng := hetgc.NewRand(1)
	data, err := hetgc.GaussianMixture(k*10, 4, 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	model := &hetgc.Softmax{InputDim: 4, NumClasses: 3}

	tel := hetgc.NewTelemetry()
	srv, err := hetgc.ServeTelemetry(tel, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	master, err := hetgc.NewElasticMaster(hetgc.ElasticConfig{
		K: k, S: 1,
		Model:            model,
		Optimizer:        &hetgc.SGD{LR: 0.5},
		InitialParams:    model.InitParams(nil),
		Iterations:       iters,
		SampleCount:      data.N(),
		IterTimeout:      10 * time.Second,
		MinWorkers:       workers,
		Seed:             1,
		DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: t.TempDir(), SnapshotEvery: 2},
		HAConfig:         hetgc.HAConfig{LeaseTTL: 2 * time.Second},
		TelemetryConfig:  hetgc.TelemetryConfig{Obs: tel},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w, err := hetgc.DialElasticWorker(master.Addr(), hetgc.ElasticWorkerConfig{
			Model:             model,
			PartitionData:     func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
			DelayPerPartition: func(int) time.Duration { return 2 * time.Millisecond },
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	sawLive := watchDuringRun(srv.URL()+"/metrics", done)
	res, err := master.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count == 0 {
		t.Fatal("run recorded no iterations")
	}

	if !sawLive.Load() {
		t.Error("no successful /metrics scrape observed during training")
	}
	assertSmokeFamilies(t, scrape(t, srv.URL()+"/metrics"))
}

func TestMetricsSmokeSharded(t *testing.T) {
	const k, m, iters = 8, 4, 16
	rng := hetgc.NewRand(1)
	data, err := hetgc.GaussianMixture(k*10, 4, 3, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	model := &hetgc.Softmax{InputDim: 4, NumClasses: 3}
	throughputs := make([]float64, m)
	for i := range throughputs {
		throughputs[i] = 500
	}

	tel := hetgc.NewTelemetry()
	srv, err := hetgc.ServeTelemetry(tel, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := hetgc.ShardedConfig{
		K: k, S: 1, GroupSize: 2, FanIn: 2,
		Throughputs:      throughputs,
		Model:            model,
		Optimizer:        &hetgc.SGD{LR: 0.5},
		InitialParams:    model.InitParams(nil),
		Iterations:       iters,
		SampleCount:      data.N(),
		IterTimeout:      10 * time.Second,
		Alpha:            0.7,
		DriftThreshold:   0.5,
		MinObservations:  2,
		CooldownIters:    2,
		Seed:             1,
		DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: t.TempDir(), SnapshotEvery: 2},
		HAConfig:         hetgc.HAConfig{LeaseTTL: 2 * time.Second},
		TelemetryConfig:  hetgc.TelemetryConfig{Obs: tel},
	}

	done := make(chan struct{})
	sawLive := watchDuringRun(srv.URL()+"/metrics", done)
	var wg sync.WaitGroup
	res, err := hetgc.RunSharded(cfg, "127.0.0.1:0", 5*time.Second, func(root *hetgc.ShardedRoot) {
		addrs := root.GroupAddrs()
		for g, grp := range root.Plan().Groups {
			for range grp.Workers {
				w, err := hetgc.DialElasticWorker(addrs[g], hetgc.ElasticWorkerConfig{
					Model:             model,
					PartitionData:     func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
					DelayPerPartition: func(int) time.Duration { return 2 * time.Millisecond },
				})
				if err != nil {
					panic(fmt.Sprintf("dial group %d: %v", g, err))
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run()
				}()
			}
		}
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) == 0 {
		t.Fatal("run recorded no iterations")
	}

	if !sawLive.Load() {
		t.Error("no successful /metrics scrape observed during training")
	}
	assertSmokeFamilies(t, scrape(t, srv.URL()+"/metrics"))
}
