// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it generates the corpus, builds and saves the indexes,
// boots the real permserve (and permrouter) daemons on loopback, drives
// them from one open-loop load generator, checks every answer against an
// in-process reference, and prints one JSON result line.
//
//	perfbench -bin <dir with permserve, permrouter> -work <scratch dir> \
//		--workload sift-napp --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the measured pass and prints the end-to-end metrics;
// --trace 1 is the traced pass and prints the per-layer metrics. run.sh
// builds the binaries and supplies -bin and -work; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one run's configuration.
type env struct {
	bin, work string
	seed      int64
	seconds   float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds one run; past it the run stops its daemons and fails.
const runLimit = 170 * time.Second

func logf(format string, args ...any) { log.Printf(format, args...) }

func main() {
	ws := workloads()
	names := make([]string, 0, len(ws))
	for name := range ws {
		names = append(names, name)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "run seed: draws the query pool, the traffic and the LSM write script (the corpus and index build are fixed)")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: measured pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
	bin := flag.String("bin", "", "directory holding the permserve and permrouter binaries")
	work := flag.String("work", "", "scratch directory for index files, logs and span dumps")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("perfbench: ")

	w, ok := ws[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -bin, -work, --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	// The load generator stays within two cores, whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	e := &env{bin: *bin, seed: *seed, seconds: *seconds,
		work: filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))}
	if err := os.RemoveAll(e.work); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		stopAll()
		fail(fmt.Errorf("run exceeded %v", runLimit))
	})

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = traced(ctx, e, w)
	} else {
		rep, err = measured(ctx, e, w)
	}
	w.stop()
	stopAll()
	watchdog.Stop()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fail(err)
	}
	// The index files are large and each run regenerates them; keep only
	// the logs of a failed run.
	removeDir(e.work)
	blob, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(blob))
}

// fail stops every daemon and exits non-zero without a result line.
func fail(err error) {
	stopAll()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
