package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rfview/internal/client"
	"rfview/internal/server"
)

// tally counts verified operations: attempted, and failed (an error or a
// wrong answer).
type tally struct{ attempted, failed int }

func (t *tally) note(err error, what string) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// do runs one operation over the wire, checks it, and applies an
// acknowledged write to the ledger. It returns the client-side latency.
func do(c *client.Client, o op) (*client.Result, time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	if o.kind == opRead {
		res, err := c.QueryContext(ctx, o.sql)
		d := time.Since(t0)
		if err != nil {
			return nil, d, err
		}
		return res, d, o.check(res.Rows)
	}
	res, err := c.ExecContext(ctx, o.sql)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if res.Affected != o.affected {
		return res, d, fmt.Errorf("%s: affected %d rows, want %d", o.sql, res.Affected, o.affected)
	}
	o.apply()
	return res, d, nil
}

func clientQuerier(c *client.Client) querier {
	return func(sql string) ([][]any, error) {
		res, err := c.QueryContext(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// setUp launches a server on an empty data directory, loads the data,
// builds indexes and views, and answers the verified probe read.
func setUp(cfg config, wl workload, dataDir, logPath string, t *tally) (*serverProc, *client.Client, time.Duration, error) {
	t0 := time.Now()
	p, err := startServer(cfg.server, dataDir, logPath, wl.flags())
	if err != nil {
		return nil, nil, 0, err
	}
	c, _, err := dial(p.addr)
	if err != nil {
		p.kill()
		return nil, nil, 0, err
	}
	for _, s := range wl.setup() {
		if _, err := c.ExecContext(context.Background(), s); err != nil {
			c.Close()
			p.kill()
			return nil, nil, 0, fmt.Errorf("set-up %.60s: %w", s, err)
		}
	}
	_, _, err = do(c, wl.probe())
	d := time.Since(t0)
	t.note(err, "set-up probe")
	return p, c, d, nil
}

// wirePhase is what one warm-up plus measured phase over the wire saw.
type wirePhase struct {
	readLat, writeLat []float64 // ms
	roundtripUs       []float64 // per read, client side
	serverUs          []float64 // per read, Result.ElapsedUs
	respBytes         int64     // bytes read off the wire during measured reads
	reads, writes     int
	rewritten         int // reads the server answered through a view rewrite
	elapsed           time.Duration
	cpuTicks          int64
	steal             int64
	before, after     *server.StatsReply
	metBefore         map[string]float64
	metAfter          map[string]float64
	peakRSSKiB        int64
}

// runWire drives the warm-up and the measured operations over one
// connection, in a closed loop, with the load process on one P.
func runWire(cfg config, wl workload, p *serverProc, c *client.Client, cc *countingConn, t *tally) (*wirePhase, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for i, n := 0, wl.warmupOps(); i < n; i++ {
		o := wl.next()
		_, _, err := do(c, o)
		t.note(err, "warm-up "+o.sql)
	}
	w := &wirePhase{}
	var err error
	if w.before, err = c.Stats(); err != nil {
		return nil, err
	}
	if w.metBefore, err = scrape(c); err != nil {
		return nil, err
	}
	n := wl.opsPerSecond() * cfg.seconds
	cpu0, err := cpuTicks(p.pid())
	if err != nil {
		return nil, err
	}
	steal0 := stealTicks()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o := wl.next()
		var b0 int64
		if cc != nil {
			b0 = cc.read.Load()
		}
		res, d, err := do(c, o)
		t.note(err, o.sql)
		if err != nil {
			continue
		}
		if o.kind == opWrite {
			w.writes++
			w.writeLat = append(w.writeLat, ms(d))
			continue
		}
		w.reads++
		w.readLat = append(w.readLat, ms(d))
		if res.Rewritten != "" {
			w.rewritten++
		}
		if cc != nil {
			w.respBytes += cc.read.Load() - b0
			w.roundtripUs = append(w.roundtripUs, float64(d.Microseconds()))
			w.serverUs = append(w.serverUs, float64(res.ElapsedUs))
		}
	}
	w.elapsed = time.Since(t0)
	w.steal = stealTicks() - steal0
	cpu1, err := cpuTicks(p.pid())
	if err != nil {
		return nil, err
	}
	w.cpuTicks = cpu1 - cpu0
	if w.after, err = c.Stats(); err != nil {
		return nil, err
	}
	if w.metAfter, err = scrape(c); err != nil {
		return nil, err
	}
	if w.peakRSSKiB, err = peakRSSKiB(p.pid()); err != nil {
		return nil, err
	}
	return w, nil
}

// scrape reads the unlabelled samples of the server's metrics exposition.
func scrape(c *client.Client) (map[string]float64, error) {
	txt, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(txt))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// regime checks that the run still exercises what its workload is for, and
// records the counters the verdict rests on.
func regime(name string, w *wirePhase, derivedShare float64, rec map[string]any) {
	b, a := w.before, w.after
	// Every statement looks the cache up, writes included. A lookup that
	// finds a stale entry counts as a hit and then as an invalidation; only
	// the rest were answered from the cache, and only reads can be.
	hits := float64(a.PlanCache.Hits-b.PlanCache.Hits) - float64(a.PlanCache.Invalidations-b.PlanCache.Invalidations)
	hitRatio := hits / float64(max(1, w.reads))
	ckpts := w.metAfter["rfview_wal_checkpoints_total"]
	lsn := w.metAfter["rfview_wal_last_lsn"]
	evictions := a.BufferPool.Evictions - b.BufferPool.Evictions
	spillRuns := a.Spill.Runs - b.Spill.Runs
	counters := map[string]any{
		"plan_cache_hits": hits, "reads": w.reads, "hit_ratio": hitRatio,
		"derived_share":   derivedShare,
		"pool_evictions":  evictions,
		"pool_misses":     a.BufferPool.Misses - b.BufferPool.Misses,
		"spill_runs":      spillRuns,
		"full_refreshes":  a.Maintenance.FullRefreshes,
		"delta_applied":   a.Maintenance.DeltaApplied - b.Maintenance.DeltaApplied,
		"txn_commits":     a.Txn.Commits - b.Txn.Commits,
		"conflict_aborts": a.Txn.ConflictAborts - b.Txn.ConflictAborts,
		"wal_checkpoints": ckpts,
		"wal_last_lsn":    lsn,
	}
	rec["server_gomaxprocs"] = a.WindowParallelism
	var drift []string
	switch name {
	case "derived_reports":
		if hitRatio > 0.1 {
			drift = append(drift, "hit_ratio > 0.1")
		}
		if derivedShare < 0.9 {
			drift = append(drift, "derived_share < 0.9")
		}
	case "cached_dashboard":
		if hitRatio < 0.99 {
			drift = append(drift, "hit_ratio < 0.99")
		}
	case "warehouse_ingest":
		if evictions <= 0 {
			drift = append(drift, "no pool evictions")
		}
		if spillRuns <= 0 {
			drift = append(drift, "no spill runs")
		}
		if a.Maintenance.FullRefreshes != 0 {
			drift = append(drift, "full refreshes")
		}
	}
	// Checkpoints fire once at start-up and then every 1,024 logged
	// statements, so with a fixed operation sequence their count follows
	// from the last LSN; a mismatch means they no longer land at the same
	// statement numbers.
	if want := float64(1 + int(lsn)/1024); ckpts != want {
		drift = append(drift, fmt.Sprintf("checkpoints %v, want %v at lsn %v", ckpts, want, lsn))
	}
	rec["regime"] = counters
	rec["regime_drift"] = drift
	rec["regime_ok"] = len(drift) == 0
}

// repeats is the number of timed set-ups and restarts of a run.
func repeats(cfg config, wl workload) int {
	if cfg.repeats > 0 {
		return cfg.repeats
	}
	return wl.repeats()
}

// crashAndRestart SIGKILLs the server, then restarts repeats times on
// identical copies of the killed data directory, timing each from launch
// to the first verified read. The last restart also checks every
// acknowledged write. It returns the restart times in seconds.
func crashAndRestart(cfg config, wl workload, p *serverProc, dataDir, dir string, t *tally) ([]float64, error) {
	p.kill()
	var times []float64
	n := repeats(cfg, wl)
	for i := 0; i < n; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(dataDir, cp); err != nil {
			return nil, err
		}
		t0 := time.Now()
		rp, err := startServer(cfg.server, cp, filepath.Join(dir, "restart.log"), wl.flags())
		if err != nil {
			return nil, err
		}
		c, _, err := dial(rp.addr)
		if err != nil {
			rp.kill()
			return nil, err
		}
		_, _, err = do(c, wl.probe())
		times = append(times, time.Since(t0).Seconds())
		t.note(err, "restart probe")
		if i == n-1 {
			t.note(wl.verify(clientQuerier(c)), "durability check")
		}
		c.Close()
		rp.kill()
		if err := os.RemoveAll(cp); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// timedRun is the untraced run: set-up several times, then warm up,
// measure, crash, restart and check durability; it reports the end-to-end
// metrics.
func timedRun(cfg config, dir string, rec map[string]any) (*result, error) {
	var t tally
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.size, dir)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var p *serverProc
	var c *client.Client
	var dataDir string
	n := repeats(cfg, wl)
	for i := 0; i < n; i++ {
		dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", i))
		var d time.Duration
		p, c, d, err = setUp(cfg, wl, dataDir, filepath.Join(dir, "server.log"), &t)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < n-1 {
			c.Close()
			p.kill()
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
	}
	defer p.kill()
	w, err := runWire(cfg, wl, p, c, nil, &t)
	c.Close()
	if err != nil {
		return nil, err
	}
	regime(cfg.workload, w, float64(w.rewritten)/float64(max(1, w.reads)), rec)
	p.kill()
	durable, err := dirBytes(dataDir, "tmp")
	if err != nil {
		return nil, err
	}
	restarts, err := crashAndRestart(cfg, wl, p, dataDir, dir, &t)
	if err != nil {
		return nil, err
	}
	ops := w.reads + w.writes
	rec["setup_s"], rec["restart_s"], rec["measured_steal_ticks"] = setups, restarts, w.steal
	rec["reads"], rec["writes"] = w.reads, w.writes
	rec["read_ms"], rec["write_ms"] = w.readLat, w.writeLat
	m := map[string]metric{
		"read_p50_ms":          {quantile(w.readLat, 0.5), "ms"},
		"read_p90_ms":          {quantile(w.readLat, 0.9), "ms"},
		"read_qps":             {float64(w.reads) / w.elapsed.Seconds(), "1/s"},
		"server_cpu_ms_per_op": {float64(w.cpuTicks) * 1000 / clockTick / float64(max(1, ops)), "ms"},
		"setup_s":              {median(setups), "s"},
		"server_peak_rss_mb":   {float64(w.peakRSSKiB) / 1024, "MiB"},
		"data_dir_mb":          {float64(durable) / (1 << 20), "MiB"},
	}
	return &result{Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
