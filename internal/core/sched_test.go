package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s := NewScheduler(workers)
		var ran atomic.Int64
		for i := 0; i < 100; i++ {
			s.Submit(func(int) { ran.Add(1) })
		}
		s.Wait()
		s.Close()
		if ran.Load() != 100 {
			t.Errorf("workers=%d: ran %d of 100 items", workers, ran.Load())
		}
	}
}

// TestSchedulerSpawnedChildrenComplete: Close must cover work spawned by
// running items, not just direct submissions.
func TestSchedulerSpawnedChildrenComplete(t *testing.T) {
	s := NewScheduler(4)
	var mu sync.Mutex
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		i := i
		s.Submit(func(w int) {
			for j := 0; j < 10; j++ {
				j := j
				s.Spawn(w, func(int) {
					mu.Lock()
					seen[i*10+j] = true
					mu.Unlock()
				})
			}
		})
	}
	s.Close()
	if len(seen) != 100 {
		t.Fatalf("spawned children ran %d of 100", len(seen))
	}
}

// TestSchedulerRunsItemsConcurrently proves four workers really dispatch
// four items at once, independent of core count: each item rendezvouses
// with the other three before any is released, which only completes when
// all four are in flight simultaneously (blocked goroutines yield the CPU,
// so this holds even on a single-core host where wall-clock speedup can't).
func TestSchedulerRunsItemsConcurrently(t *testing.T) {
	const workers = 4
	s := NewScheduler(workers)
	defer s.Close()
	var arrived atomic.Int64
	ready := make(chan struct{})
	release := make(chan struct{})
	for i := 0; i < workers; i++ {
		s.Submit(func(int) {
			if arrived.Add(1) == workers {
				close(ready)
			}
			<-release
		})
	}
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d items entered concurrently", arrived.Load(), workers)
	}
	close(release)
	s.Wait()
}

// TestSchedulerDequeDiscipline drives push/pop directly (no worker
// goroutines): a worker pops its own newest item first, while a thief takes
// the victim's oldest — the work-stealing order that keeps spawned
// replications local and hands stragglers the biggest remaining pieces.
func TestSchedulerDequeDiscipline(t *testing.T) {
	s := &Scheduler{deques: make([]dequeOf, 2)}
	s.cond = sync.NewCond(&s.mu)
	var log []string
	item := func(name string) func(int) {
		return func(int) { log = append(log, name) }
	}
	s.push(0, item("a"))
	s.push(0, item("b"))
	s.push(0, item("c"))
	for _, step := range []struct {
		worker int
		want   string
	}{
		{0, "c"}, // own deque: newest first
		{1, "a"}, // steal: victim's oldest
		{0, "b"},
	} {
		fn := s.pop(step.worker)
		if fn == nil {
			t.Fatalf("pop(%d): empty, want %q", step.worker, step.want)
		}
		fn(step.worker)
		if got := log[len(log)-1]; got != step.want {
			t.Fatalf("pop(%d) ran %q, want %q", step.worker, got, step.want)
		}
	}
	if s.pop(0) != nil || s.pop(1) != nil {
		t.Fatal("deques should be empty")
	}
}

// TestSweepSchedulerMatchesSequential: any worker count must reproduce the
// one-worker sweep exactly (each point is an independent seeded simulation).
func TestSweepSchedulerMatchesSequential(t *testing.T) {
	cfg := quick("2pn")
	loads := []float64{0.1, 0.2, 0.3, 0.4}
	seq, err := SweepN(cfg, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepN(cfg, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestSweepReplicatedMatchesIndividualRuns: every (load, replication) cell
// must equal the same config run directly.
// TestSweepReplicatedMatchesIndividualRuns: at any width the (load, seed)
// matrix equals sequential Runs — every replica is an independent point on
// its worker's recycled engine, so which replicas shared an engine, and in
// which order, cannot show. The saturated load leaves each engine full of
// worms for whatever runs next on it. CI runs this under -race: the workers'
// engines must not be shared.
func TestSweepReplicatedMatchesIndividualRuns(t *testing.T) {
	cfg := quick("nbc")
	loads := []float64{0.15, 0.9}
	seeds := []uint64{3, 11, 29}
	want := make([][]Result, len(loads))
	for i, load := range loads {
		for _, seed := range seeds {
			c := cfg
			c.OfferedLoad = load
			c.Seed = seed
			r, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], r)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		reps, err := SweepReplicated(cfg, loads, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != len(loads) {
			t.Fatalf("workers=%d: got %d loads, want %d", workers, len(reps), len(loads))
		}
		for i, load := range loads {
			if len(reps[i].Replicas) != len(seeds) {
				t.Fatalf("workers=%d load %g: %d replicas, want %d", workers, load, len(reps[i].Replicas), len(seeds))
			}
			for j, seed := range seeds {
				if !reflect.DeepEqual(reps[i].Replicas[j], want[i][j]) {
					t.Errorf("workers=%d load %g seed %d diverged from direct run", workers, load, seed)
				}
			}
			if reps[i].MeanLatency <= 0 || reps[i].MeanThroughput <= 0 {
				t.Errorf("workers=%d load %g: empty aggregate %+v", workers, load, reps[i])
			}
		}
	}
}

func TestReplicateBatchMatchesSequential(t *testing.T) {
	cfg := Config{K: 4, N: 2, Algorithm: "nbc", Seed: 1}
	seeds := []uint64{7, 13}
	got, err := ReplicateBatch(cfg, "transpose", seeds, 2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for j, seed := range seeds {
		c := cfg
		c.Seed = seed
		burst, err := PermutationBurst(c, "transpose")
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunBatch(c, burst, burst.LastCycle(), 100000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[j], want) {
			t.Errorf("seed %d: replica diverged from sequential run:\ngot:  %+v\nwant: %+v", seed, got[j], want)
		}
	}
}

func TestFindSaturationSetMatchesIndividualSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation bisection is slow")
	}
	cfg := quick("ecube")
	cfg.MaxSamples = 2
	algs := []string{"ecube", "nbc"}
	set, err := FindSaturationSet(cfg, algs, 0.1, 1.0, 0.1, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, alg := range algs {
		c := cfg
		c.Algorithm = alg
		load, at, err := FindSaturation(c, 0.1, 1.0, 0.1, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if set[i].Load != load || !reflect.DeepEqual(set[i].At, at) {
			t.Errorf("%s: set search found %g, individual %g", alg, set[i].Load, load)
		}
	}
}

// TestSchedulerZeroTasks: Wait and Close on an idle pool must return
// immediately instead of parking forever on the condition variable.
func TestSchedulerZeroTasks(t *testing.T) {
	s := NewScheduler(4)
	done := make(chan struct{})
	go func() {
		s.Wait()
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait/Close with zero tasks did not return")
	}
}

// TestSchedulerSingleWorker: with one worker there is nobody to steal from;
// submissions and spawns must still all run, in some order, exactly once.
func TestSchedulerSingleWorker(t *testing.T) {
	s := NewScheduler(1)
	var runs [40]atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		s.Submit(func(w int) {
			runs[i].Add(1)
			s.Spawn(w, func(int) { runs[20+i].Add(1) })
		})
	}
	s.Close()
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times, want exactly once", i, got)
		}
	}
}

// TestSchedulerMoreWorkersThanTasks: idle workers must park and shut down
// cleanly when the pool is wider than the workload.
func TestSchedulerMoreWorkersThanTasks(t *testing.T) {
	s := NewScheduler(16)
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		s.Submit(func(int) { ran.Add(1) })
	}
	s.Close()
	if ran.Load() != 3 {
		t.Errorf("ran %d of 3 tasks", ran.Load())
	}
}

// TestSchedulerStealHeavyExactlyOnce funnels all submissions through one
// producer while every worker's own spawns pile onto its local deque, so
// most dispatch happens by stealing; each task must still run exactly once.
func TestSchedulerStealHeavyExactlyOnce(t *testing.T) {
	const tasks = 2000
	s := NewScheduler(8)
	var runs [tasks]atomic.Int64
	for i := 0; i < tasks/2; i++ {
		i := i
		s.Submit(func(w int) {
			runs[i].Add(1)
			j := tasks/2 + i
			s.Spawn(w, func(int) { runs[j].Add(1) })
		})
	}
	s.Close()
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", i, got)
		}
	}
}
