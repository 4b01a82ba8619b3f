// Recovery: durable training state on a live loopback TCP cluster. An
// elastic master checkpoints into a directory (write-ahead journal + atomic
// model snapshots) while four workers train a softmax model. Mid-training
// the master process is killed cold — no goodbye frames, no final snapshot,
// exactly a crash. A second master is then constructed FROM the checkpoint
// directory: it restores the model and optimizer state from the newest
// snapshot, reserves the old member identities, and raises its plan-epoch
// base above everything the journal recorded. The same worker processes —
// which have been re-dialing the whole time — rejoin through the ordinary
// ResumeID handshake, one of them replays a pre-crash upload to show the
// epoch fence rejecting it, and training runs to completion.
package main

import (
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
	iters      = 30
	numWorkers = 4
	killAfter  = 10 // crash once this iteration is durably journaled
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "hetgc-recovery-*")
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
	config := func(resume bool) hetgc.ElasticConfig {
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
			LossEvery:     5,
			LossFn: func(p []float64) (float64, error) {
				return hetgc.MeanLoss(model, p, data)
			},
			DurabilityConfig: hetgc.DurabilityConfig{CheckpointDir: dir, SnapshotEvery: 3, Resume: resume},
		}
	}

	// Phase 1: a checkpointing master, killed cold mid-training.
	master, err := hetgc.NewElasticMaster(config(false), "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: master on %s, checkpointing into %s\n", master.Addr(), dir)

	// The workers outlive the master: each runs a reconnect loop that
	// re-dials the current address with its old member ID after any
	// connection loss — the shape of a real production worker.
	var addr atomic.Value
	addr.Store(master.Addr())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < numWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resumeID := 0
			for !stop.Load() {
				w, err := hetgc.DialElasticWorker(addr.Load().(string), hetgc.ElasticWorkerConfig{
					Model:         model,
					PartitionData: func(p int) (*hetgc.Dataset, error) { return parts[p], nil },
					Delay:         func(int) time.Duration { return 2 * time.Millisecond },
					ResumeID:      resumeID,
					DialTimeout:   time.Second,
				})
				if err != nil {
					time.Sleep(20 * time.Millisecond)
					continue
				}
				resumeID = w.ID()
				if w.Run() == nil {
					return // clean shutdown from the master
				}
				// Connection lost (the crash): retry until the resumed
				// master answers.
				time.Sleep(20 * time.Millisecond)
			}
		}(i)
	}

	if err := master.WaitForWorkers(10 * time.Second); err != nil {
		return err
	}
	runErr := make(chan error, 1)
	go func() {
		_, err := master.Run()
		runErr <- err
	}()
	// Kill once iteration killAfter is durable in the journal.
	for {
		st, err := hetgc.RecoverCheckpoint(dir)
		if err == nil && st.LastIter >= killAfter {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	master.Close() // cold: the crash
	<-runErr
	state, err := hetgc.RecoverCheckpoint(dir)
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: KILLED after iteration %d (snapshot at iter %d, max epoch %d, members %v)\n",
		state.LastIter, state.Snap.Iter, state.MaxEpoch(), state.GroupMembers[0])

	// Phase 2: reconstruct from the directory and finish the job.
	resumed, err := hetgc.NewElasticMaster(config(true), "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("phase 2: resumed master on %s from iteration %d; workers re-dialing\n",
		resumed.Addr(), resumed.StartIter())
	addr.Store(resumed.Addr())
	if err := resumed.WaitForWorkers(10 * time.Second); err != nil {
		return err
	}
	res, err := resumed.Run()
	if err != nil {
		return err
	}
	stop.Store(true)
	wg.Wait()

	fmt.Printf("phase 2: iterations %d..%d complete; epochs resumed at %d (> pre-crash max %d: stale uploads fenced)\n",
		res.StartIter, iters, res.Epochs[0], state.MaxEpoch())
	fmt.Printf("rejoins: %d  stale-epoch uploads fenced: %d\n", res.Joins, res.StaleEpochRejected)
	fmt.Println("loss curve across the crash (time s, mean loss):")
	for _, p := range res.Curve.Points {
		fmt.Printf("  %8.3f  %.4f\n", p.X, p.Y)
	}
	return nil
}
