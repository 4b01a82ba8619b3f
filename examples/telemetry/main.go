// Telemetry: a live loopback training run observed from the outside. Four
// workers train a softmax model on the elastic runtime while the run serves
// its telemetry plane over HTTP; once training finishes, the program scrapes
// its own /metrics endpoint exactly as Prometheus would and prints the hetgc
// families — iteration counters and latency, per-worker throughput
// estimates, decode-cache hit rate, roster membership — followed by the
// structured event journal from /debug/events. The same *Telemetry bundle
// can be handed to SimulateElastic to produce a byte-comparable sim scrape.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/hetgc/hetgc"
)

const (
	k, s  = 8, 1
	iters = 20
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := hetgc.NewRand(1)
	data, err := hetgc.GaussianMixture(k*20, 4, 3, 3, rng)
	if err != nil {
		return err
	}
	parts, err := data.Split(k)
	if err != nil {
		return err
	}
	model := &hetgc.Softmax{InputDim: 4, NumClasses: 3}

	// The telemetry plane: one bundle, one HTTP server. Port 0 picks a free
	// port; a deployment would pin one and point Prometheus at it.
	tel := hetgc.NewTelemetry()
	srv, err := hetgc.ServeTelemetry(tel, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("telemetry plane on %s\n", srv.URL())

	master, err := hetgc.NewElasticMaster(hetgc.ElasticConfig{
		K: k, S: s,
		Model:           model,
		Optimizer:       &hetgc.SGD{LR: 0.5},
		InitialParams:   model.InitParams(nil),
		Iterations:      iters,
		SampleCount:     data.N(),
		IterTimeout:     10 * time.Second,
		MinWorkers:      4,
		Seed:            1,
		TelemetryConfig: hetgc.TelemetryConfig{Obs: tel},
	}, "127.0.0.1:0")
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		w, err := hetgc.DialElasticWorker(master.Addr(), hetgc.ElasticWorkerConfig{
			Model:             model,
			PartitionData:     func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
			DelayPerPartition: func(int) time.Duration { return 2 * time.Millisecond },
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run()
		}()
	}
	if err := master.WaitForWorkers(5 * time.Second); err != nil {
		return err
	}
	res, err := master.Run()
	wg.Wait()
	if err != nil {
		return err
	}
	fmt.Printf("trained %d iterations, mean %.1fms\n\n", res.Summary.Count, res.Summary.Mean*1e3)

	// Scrape our own /metrics, as Prometheus would.
	fmt.Println("curl " + srv.URL() + "/metrics:")
	body, err := get(srv.URL() + "/metrics")
	if err != nil {
		return err
	}
	shown := 0
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		// Show the sample lines of a few representative families; the full
		// exposition carries every hetgc_* metric plus HELP/TYPE metadata.
		for _, fam := range []string{
			"hetgc_iterations_total", "hetgc_iteration_seconds_count",
			"hetgc_worker_throughput_estimate", "hetgc_decode_cache_hit_ratio",
			"hetgc_roster_members", "hetgc_replans_total", "hetgc_wire_bytes_out_total",
		} {
			if strings.HasPrefix(line, fam) {
				fmt.Println("  " + line)
				shown++
			}
		}
	}
	fmt.Printf("  ... (%d lines total)\n\n", strings.Count(body, "\n"))
	if shown == 0 {
		return fmt.Errorf("scrape returned no hetgc samples")
	}

	// And the structured event journal.
	fmt.Println("curl " + srv.URL() + "/debug/events:")
	body, err = get(srv.URL() + "/debug/events")
	if err != nil {
		return err
	}
	var events []hetgc.TelemetryEvent
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		return err
	}
	for _, ev := range events {
		fmt.Printf("  #%-3d %-7s iter=%d member=%d %s\n", ev.Seq, ev.Kind, ev.Iter, ev.Member, ev.Detail)
	}
	return nil
}

// get fetches a URL and returns its body.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
