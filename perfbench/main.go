// Command perfbench is rfview's repository benchmark. It drives one of
// three workloads against a real rfserverd and prints one JSON result line.
//
//	perfbench -server BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it repeats the wire phase once more and then replays the same
// operation sequence in-process, timing the calls into each layer, and
// reports the per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // rfserverd binary
	work     string // scratch directory for data dirs and logs
	size     size
	// repeats overrides the workload's number of timed set-ups and
	// restarts when positive.
	repeats int
	// replayShare is the fraction of the measured operations the traced
	// in-process replay runs.
	replayShare float64
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequence and data")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sets the fixed operation count")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run")
	flag.StringVar(&cfg.server, "server", "", "rfserverd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.size = fullSize
	cfg.replayShare = 0.25
	if cfg.server == "" || cfg.work == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work and --seconds >= 1 are required")
		os.Exit(2)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		live.killAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(1)
	}()
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, res, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run executes one benchmark run in a private subdirectory of cfg.work,
// removed afterwards.
func run(cfg config) (*result, map[string]any, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	rec := hostRecord(cfg)
	steal0 := stealTicks()
	var res *result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg, dir, rec)
	} else {
		res, err = timedRun(cfg, dir, rec)
	}
	if err != nil {
		return nil, nil, err
	}
	rec["run_steal_ticks"] = stealTicks() - steal0
	res.Correct = res.Failed == 0
	return res, rec, nil
}

// hostRecord describes the machine and build a result set came from.
func hostRecord(cfg config) map[string]any {
	rev := "unknown"
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if r, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				head = strings.TrimSpace(string(r))
			}
		}
		rev = head
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "load_gomaxprocs": 1, "go_version": runtime.Version(),
		"git_revision": rev, "fsync": "always", "checkpoint_every": 1024,
		"time": time.Now().UTC().Format(time.RFC3339),
	}
}

// writeRecord stores the result with its host record and regime counters
// under <work>/results, one file per run.
func writeRecord(cfg config, res *result, rec map[string]any) error {
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec["result"] = res
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, mode)
	if r, ok := rec["regime_ok"].(bool); ok && !r {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d drifted out of regime: %v\n", cfg.workload, cfg.seed, rec["regime"])
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// ---- small statistics helpers ----

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	i := int(math.Ceil(float64(len(c))*q)) - 1
	return c[max(0, min(len(c)-1, i))]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
