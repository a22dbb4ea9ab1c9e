// Command benchmark is the repo benchmark BENCHMARK.json defines: four
// workloads at the paper's figure level, six end-to-end metrics each, and a
// traced run that divides a figure's time among the repo's modules. It is
// one process that drives only public functions of the repo's packages,
// checks every Result it produces, and exits non-zero on a failed check.
//
//	go run ./benchmark                               # all workloads, seed 1
//	go run ./benchmark -workload vct_deepbuf -seed 7
//	go run ./benchmark -workload fig3_uniform -trace 1
//
// The last line of standard output is one JSON object per the benchmark
// contract. README.md explains the workloads, metrics, bounds and method.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runSeconds is BENCHMARK.json's run_seconds, the default measuring budget;
// warmShare of a budget goes to the warm reruns and repeated set-ups.
const (
	runSeconds = 25
	warmShare  = 0.4
)

// buildDir is where the harness keeps run stores and traces: inside the
// checkout it runs in, ignored by git.
const buildDir = ".bench_build"

//go:embed digests.json
var digestsJSON []byte

func main() {
	workload := flag.String("workload", "all", "workload to run: fig3_uniform, vct_deepbuf, fig4_observed, replicas_sweep or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from; only seed 1 is compared with digests.json")
	seconds := flag.Float64("seconds", runSeconds, "measuring budget: 0.4 of it for the warm reruns, and a cold round beyond the first runs only if it fits the rest")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: traced per-layer run, trace written under "+buildDir+"; FILE: the same, trace written to FILE")
	flag.Parse()

	runtime.GOMAXPROCS(workers())
	run := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []spec{sp}
	}
	o := options{
		k: paperK, m: quick, seed: *seed, seconds: *seconds, warmSeconds: warmShare * *seconds,
		maxRounds: 3, minReps: 50,
		scratch: filepath.Join(buildDir, "tmp"),
	}
	if *seed == 1 {
		if err := json.Unmarshal(digestsJSON, &o.digests); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: digests.json: %v\n", err)
			os.Exit(2)
		}
	}

	exit := 0
	for _, sp := range run {
		var out outcome
		var err error
		switch *trace {
		case "0":
			out, err = runEndToEnd(os.Stdout, sp, o)
		case "1":
			o.traceFile = filepath.Join(buildDir, sp.name+".trace.json")
			out, err = runTraced(os.Stdout, sp, o)
		default:
			o.traceFile = *trace
			out, err = runTraced(os.Stdout, sp, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !out.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}
