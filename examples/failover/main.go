// Failover: warm-standby root takeover on a live loopback cluster. A root
// holding the HA lease checkpoints while four workers train; a standby
// process tails the same directory. Mid-training the root is wedged — it
// keeps computing but stops renewing its lease, the failure mode of a long
// GC pause or a network partition, indistinguishable from death to everyone
// else. The lease lapses, the standby promotes, and a successor root
// resumes from the directory at the next lease generation. The wedged root
// is now a zombie: its next journal write is rejected typed (ErrFenced,
// naming the generation that deposed it) and it exits without corrupting
// anything, while the workers defect to the successor and training runs to
// completion. A cold kill behaves identically, except nobody is left to be
// fenced.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hetgc/hetgc"
)

const (
	k, s       = 8, 1
	iters      = 60
	numWorkers = 4
	wedgeAfter = 12 // wedge the root once this iteration is durable
	leaseTTL   = 400 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "hetgc-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

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
	config := func(resume bool, holder string) hetgc.ElasticConfig {
		return hetgc.ElasticConfig{
			K: k, S: s,
			Model:         model,
			Optimizer:     &hetgc.SGD{LR: 0.5, Momentum: 0.5},
			InitialParams: model.InitParams(nil),
			Iterations:    iters,
			SampleCount:   data.N(),
			IterTimeout:   10 * time.Second,
			MinWorkers:    numWorkers,
			Seed:          1,
			LossEvery:     10,
			LossFn: func(p []float64) (float64, error) {
				return hetgc.MeanLoss(model, p, data)
			},
			DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: 4, Resume: resume},
			HAConfig:         hetgc.HAConfig{LeaseTTL: leaseTTL, Holder: holder},
		}
	}

	// The generation-1 root: checkpoints into dir and holds its lease.
	root, err := hetgc.NewElasticMaster(config(false, "root-a"), "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("root-a on %s: lease generation %d over %s (ttl %s)\n",
		root.Addr(), root.RootGen(), dir, leaseTTL)

	// The warm standby tails the same directory. Run blocks until the lease
	// lapses, then hands over the deposed token and the freshest durable
	// state it has been tailing.
	promc := make(chan *hetgc.Promotion, 1)
	standbyErr := make(chan error, 1)
	go func() {
		prom, err := hetgc.NewStandby(hetgc.StandbyConfig{DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: dir}}).Run(nil)
		promc <- prom
		standbyErr <- err
	}()

	// Workers outlive any single root: each re-dials the current address
	// with its old member ID after a connection loss.
	var addr atomic.Value
	addr.Store(root.Addr())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < numWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resumeID := 0
			for !stop.Load() {
				w, err := hetgc.DialElasticWorker(addr.Load().(string), hetgc.ElasticWorkerConfig{
					Model:         model,
					PartitionData: func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
					Delay:         func(int) time.Duration { return 25 * time.Millisecond },
					ResumeID:      resumeID,
					DialTimeout:   time.Second,
				})
				if err != nil {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				resumeID = w.ID()
				if w.Run() == nil {
					return // clean shutdown
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}

	if err := root.WaitForWorkers(10 * time.Second); err != nil {
		return err
	}
	rootErr := make(chan error, 1)
	go func() {
		_, err := root.Run()
		rootErr <- err
	}()

	// Wedge the root once iteration wedgeAfter is durable: it keeps
	// training, but its lease silently lapses.
	for {
		st, err := hetgc.RecoverCheckpoint(dir)
		if err == nil && st.LastIter >= wedgeAfter {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	root.SuspendLeaseRenewal()
	fmt.Printf("root-a WEDGED after iteration %d: still training, no longer renewing\n", wedgeAfter)

	// The standby notices the lapse and promotes.
	prom := <-promc
	if err := <-standbyErr; err != nil {
		return err
	}
	fmt.Printf("standby PROMOTED: generation %d (%q) lapsed; freshest durable iteration %d\n",
		prom.Deposed.Gen, prom.Deposed.Holder, prom.State.LastIter)

	// The successor resumes from the directory at generation 2. The zombie
	// is still running — the lease fence is what keeps this safe.
	successor, err := hetgc.NewElasticMaster(config(true, "root-b"), "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("root-b on %s: lease generation %d, resuming at iteration %d\n",
		successor.Addr(), successor.RootGen(), successor.StartIter())
	addr.Store(successor.Addr())

	// The zombie's next journal write is rejected by the generation fence:
	// a typed error naming its usurper, not a corrupted directory.
	zerr := <-rootErr
	if zerr == nil {
		return errors.New("the deposed root finished cleanly — fencing failed")
	}
	fmt.Printf("root-a FENCED (ErrFenced: %v):\n  %v\n", errors.Is(zerr, hetgc.ErrFenced), zerr)
	root.Close() // frees any worker still attached to the zombie

	if err := successor.WaitForWorkers(10 * time.Second); err != nil {
		return err
	}
	res, err := successor.Run()
	if err != nil {
		return err
	}
	stop.Store(true)
	wg.Wait()

	fmt.Printf("root-b finished iterations %d..%d under generation %d; rejoins: %d, stale-generation uploads fenced: %d\n",
		res.StartIter, iters, res.RootGen, res.Joins, res.FencedRejected)
	fmt.Println("loss curve across the failover (time s, mean loss):")
	for _, p := range res.Curve.Points {
		fmt.Printf("  %8.3f  %.4f\n", p.X, p.Y)
	}
	return nil
}
