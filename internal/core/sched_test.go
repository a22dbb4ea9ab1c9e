package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s := NewScheduler(workers)
		var ran atomic.Int64
		for i := 0; i < 100; i++ {
			s.Submit(func() { ran.Add(1) })
		}
		s.Close()
		if ran.Load() != 100 {
			t.Errorf("workers=%d: ran %d of 100 items", workers, ran.Load())
		}
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
	var arrived atomic.Int64
	ready := make(chan struct{})
	release := make(chan struct{})
	for i := 0; i < workers; i++ {
		s.Submit(func() {
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
	s.Close()
}

// TestSweepSchedulerMatchesSequential: the scheduled figure must reproduce a
// sequential Run of every point exactly (each point is an independent seeded
// simulation, whichever pooled engine it lands on).
func TestSweepSchedulerMatchesSequential(t *testing.T) {
	spec := FigureSpec{ID: "sched", Pattern: "uniform", Switching: Wormhole,
		Algorithms: []string{"2pn"}, Loads: []float64{0.1, 0.2, 0.3, 0.4}}
	fr, err := RunFigure(spec, quick(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := sequentialFigure(t, spec, quick("")); !reflect.DeepEqual(fr.Series, want) {
		t.Errorf("scheduled sweep diverged from sequential Runs:\nseq: %+v\npar: %+v", want, fr.Series)
	}
}

// TestSweepReplicatedMatchesIndividualRuns: at any width the (load, seed)
// matrix equals sequential Runs — every replica is an independent point on
// a pooled engine, so which replicas shared an engine, and in which order,
// cannot show. The saturated load leaves each engine full of worms for
// whatever runs next on it. CI runs this under -race: no engine may be
// shared by two running workers.
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

// TestSchedulerZeroTasks: Close on an idle pool must return immediately
// instead of parking forever on the condition variable.
func TestSchedulerZeroTasks(t *testing.T) {
	s := NewScheduler(4)
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close with zero tasks did not return")
	}
}

// TestSchedulerSingleWorker: with one worker, outside submissions and items
// submitted from inside running items must all run exactly once.
func TestSchedulerSingleWorker(t *testing.T) {
	s := NewScheduler(1)
	var runs [40]atomic.Int64
	for i := 0; i < 20; i++ {
		s.Submit(func() {
			runs[i].Add(1)
			s.Submit(func() { runs[20+i].Add(1) })
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
		s.Submit(func() { ran.Add(1) })
	}
	s.Close()
	if ran.Load() != 3 {
		t.Errorf("ran %d of 3 tasks", ran.Load())
	}
}

// TestSchedulerStealHeavyExactlyOnce funnels half the items through one
// outside producer while every running item queues the other half behind
// it, so eight workers contend for one queue from both ends of its life;
// each task must still run exactly once.
func TestSchedulerStealHeavyExactlyOnce(t *testing.T) {
	const tasks = 2000
	s := NewScheduler(8)
	var runs [tasks]atomic.Int64
	for i := 0; i < tasks/2; i++ {
		s.Submit(func() {
			runs[i].Add(1)
			s.Submit(func() { runs[tasks/2+i].Add(1) })
		})
	}
	s.Close()
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", i, got)
		}
	}
}

// TestSchedulerFIFO: one worker runs items in submission order, and items
// submitted from inside a running item queue behind everything already
// queued and run exactly once before Close returns. The first item holds the
// worker until every outside submission is queued, so the order is fixed.
func TestSchedulerFIFO(t *testing.T) {
	s := NewScheduler(1)
	var log []int // only the one worker appends
	start := make(chan struct{})
	s.Submit(func() { <-start; log = append(log, 0) })
	for i := 1; i <= 5; i++ {
		s.Submit(func() {
			log = append(log, i)
			if i%2 == 1 {
				s.Submit(func() { log = append(log, 10+i) })
			}
		})
	}
	close(start)
	s.Close()
	if want := []int{0, 1, 2, 3, 4, 5, 11, 13, 15}; !reflect.DeepEqual(log, want) {
		t.Errorf("run order %v, want %v", log, want)
	}
}
