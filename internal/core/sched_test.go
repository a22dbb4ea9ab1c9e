package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countRuns runs each at the given width over n items and returns how often
// each index ran.
func countRuns(t *testing.T, workers, n int) []int64 {
	t.Helper()
	runs := make([]atomic.Int64, n)
	if err := each(workers, n, func(i int) error { runs[i].Add(1); return nil }); err != nil {
		t.Fatalf("workers=%d n=%d: %v", workers, n, err)
	}
	out := make([]int64, n)
	for i := range runs {
		out[i] = runs[i].Load()
	}
	return out
}

// TestSchedulerRunsEveryItem: each hands out every index exactly once at any
// width.
func TestSchedulerRunsEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for i, got := range countRuns(t, workers, 100) {
			if got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want exactly once", workers, i, got)
			}
		}
	}
}

// TestSchedulerRunsItemsConcurrently proves four workers really run four
// items at once, independent of core count: each item rendezvouses with the
// other three before any is released, which only completes when all four
// are in flight simultaneously (blocked goroutines yield the CPU, so this
// holds even on a single-core host where wall-clock speedup can't).
//
// Its second half pins the error contract where completion order differs
// from index order: at width 2 index 5 fails at once, and index 2 fails
// only once index 6 has started, which the other worker reaches only after
// index 5 has returned; each still returns index 2's error.
func TestSchedulerRunsItemsConcurrently(t *testing.T) {
	const workers = 4
	var arrived atomic.Int64
	ready := make(chan struct{})
	release := make(chan struct{})
	go func() {
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d items entered concurrently", arrived.Load(), workers)
		}
		close(release)
	}()
	if err := each(workers, workers, func(int) error {
		if arrived.Add(1) == workers {
			close(ready)
		}
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	errLate, errEarly := errors.New("index 2"), errors.New("index 5")
	sixStarted := make(chan struct{})
	err := each(2, 7, func(i int) error {
		switch i {
		case 2:
			<-sixStarted
			return errLate
		case 5:
			return errEarly
		case 6:
			close(sixStarted)
		}
		return nil
	})
	if err != errLate {
		t.Errorf("each returned %v, want the lowest failing index's error %v", err, errLate)
	}
}

// TestSweepSchedulerMatchesSequential: the fanned-out figure must reproduce
// a sequential Run of every point exactly (each point is an independent
// seeded simulation, whichever pooled engine it lands on). A failing figure
// reports its lowest failing point even when that point fails last: on two
// workers, point 2 (nbc at rho=50, beyond one message per node per cycle)
// finishes only once point 6 has, which the other worker reaches only after
// point 5 (ecube at rho=50) has failed; RunFigure must wrap point 2's error.
func TestSweepSchedulerMatchesSequential(t *testing.T) {
	spec := FigureSpec{ID: "sched", Pattern: "uniform", Switching: Wormhole,
		Algorithms: []string{"2pn"}, Loads: []float64{0.1, 0.2, 0.3, 0.4}}
	fr, err := RunFigure(spec, quick(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := sequentialFigure(t, spec, quick("")); !reflect.DeepEqual(fr.Series, want) {
		t.Errorf("fanned-out sweep diverged from sequential Runs:\nseq: %+v\npar: %+v", want, fr.Series)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bad := FigureSpec{ID: "bad", Pattern: "uniform", Switching: Wormhole,
		Algorithms: []string{"nbc", "ecube", "2pn"}, Loads: []float64{0.1, 0.2, 50}}
	sixDone := make(chan struct{})
	_, err = RunFigure(bad, quick(""), func(i int, _ Result) {
		switch i {
		case 2:
			<-sixDone
		case 6:
			close(sixDone)
		}
	})
	if want := "core: figure bad, algorithm nbc, rho=50: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("RunFigure error %v, want one starting %q", err, want)
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

// TestSchedulerZeroTasks: no items means no call and no wait.
func TestSchedulerZeroTasks(t *testing.T) {
	done := make(chan error)
	go func() {
		done <- each(4, 0, func(i int) error {
			t.Errorf("fn(%d) called with n = 0", i)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("each over zero items returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("each over zero items did not return")
	}
}

// TestSchedulerSingleWorker: one worker runs the indices in increasing
// order, each once, and later indices still run after an earlier one fails.
func TestSchedulerSingleWorker(t *testing.T) {
	var order, want []int // only the one worker appends to order
	errFirst := errors.New("index 3")
	err := each(1, 20, func(i int) error {
		order = append(order, i)
		switch i {
		case 3:
			return errFirst
		case 7:
			return errors.New("index 7")
		}
		return nil
	})
	if err != errFirst {
		t.Errorf("each returned %v, want %v", err, errFirst)
	}
	for i := range 20 {
		want = append(want, i)
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("run order %v, want %v", order, want)
	}
}

// TestSchedulerMoreWorkersThanTasks: a width above n runs each of the n
// items once and returns.
func TestSchedulerMoreWorkersThanTasks(t *testing.T) {
	for i, got := range countRuns(t, 16, 3) {
		if got != 1 {
			t.Errorf("index %d ran %d times, want exactly once", i, got)
		}
	}
}

// TestSchedulerStealHeavyExactlyOnce: eight workers hammer the one counter
// with empty items, so nearly every take contends; each index must still
// run exactly once.
func TestSchedulerStealHeavyExactlyOnce(t *testing.T) {
	for i, got := range countRuns(t, 8, 2000) {
		if got != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, got)
		}
	}
}
