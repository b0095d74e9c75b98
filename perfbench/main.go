// Command perfbench is the repository's benchmark. For one workload it
// builds an index snapshot from the workload seed, serves it with
// gnnserve as a child process on a loopback port, drives the daemon with
// a closed-loop query load (plus an open-loop writer on the write
// workload), checks every answer against the library's brute force, and
// prints the end-to-end metrics as the last line of its output, one JSON
// object. With -trace 1 it instead repeats the load with per-request
// explain reports and replays the same requests serially into each
// layer's public entry point in-process, and prints the per-layer
// metrics. Build and run it with run.sh from the repository root; see
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "ts-read", "workload: ts-read, ts-sharded, ts-write or pp-small-mix")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: data set, query pool and write log")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured load time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	flag.StringVar(&c.bin, "gnnserve", ".bench_build/gnnserve", "gnnserve binary")
	flag.StringVar(&c.work, "work", ".bench_build", "directory for snapshots, logs and span files")
	flag.StringVar(&c.commit, "commit", "unknown", "source commit, for provenance")
	flag.Parse()
	c.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}

	// The benchmark shares the CPUs with the daemon it measures; a large
	// GC target keeps its own collections out of the measured windows.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := execute(ctx, c)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
