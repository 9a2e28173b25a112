package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"rfview/internal/core"
	"rfview/internal/engine"
	"rfview/internal/exec"
	"rfview/internal/mview"
	"rfview/internal/plan"
	"rfview/internal/spill"
	"rfview/internal/sqlparser"
	"rfview/internal/sqltypes"
	"rfview/internal/wal"
)

// engineOptions mirrors the server a workload runs against: default
// options, the workload's memory budget, spill files under spillDir.
func engineOptions(wl workload, spillDir string, maint mview.Mode) (engine.Options, error) {
	opts := engine.DefaultOptions()
	opts.SpillDir = spillDir
	opts.ViewMaintenance = maint.String()
	if i := slices.Index(wl.flags(), "-mem-budget"); i >= 0 {
		n, err := spill.ParseBytes(wl.flags()[i+1])
		if err != nil {
			return opts, err
		}
		opts.MemoryBudgetBytes = n
	}
	return opts, nil
}

func openDurable(wl workload, dir string, maint mview.Mode) (*wal.Manager, error) {
	opts, err := engineOptions(wl, filepath.Join(dir, "tmp"), maint)
	if err != nil {
		return nil, err
	}
	return wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways, CheckpointEvery: 1024}, opts)
}

// closeDurable takes the manager's final checkpoint and releases the
// engine's spill and page files.
func closeDurable(m *wal.Manager) error {
	err := m.Close()
	if cerr := m.Engine().Close(); err == nil {
		err = cerr
	}
	return err
}

// toWire converts engine rows to the values a wire client decodes.
func toWire(rows []sqltypes.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = make([]any, len(r))
		for j, d := range r {
			switch d.Typ() {
			case sqltypes.Int:
				out[i][j] = float64(d.Int())
			case sqltypes.Float:
				out[i][j] = d.Float()
			case sqltypes.Null:
				out[i][j] = nil
			default:
				out[i][j] = d.String()
			}
		}
	}
	return out
}

func engineQuerier(e *engine.Engine) querier {
	return func(sql string) ([][]any, error) {
		res, err := e.ExecContext(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		return toWire(res.Rows), nil
	}
}

// opClass names the executor layer an operator belongs to.
func opClass(op exec.Operator) string {
	name := fmt.Sprintf("%T", op)
	switch {
	case strings.Contains(name, "Join"):
		return "join"
	case strings.HasSuffix(name, ".Window"):
		return "window"
	case strings.HasSuffix(name, ".Sort"):
		return "sort"
	case strings.HasSuffix(name, ".Scan"):
		return "scan"
	}
	return "other"
}

// selfTimes adds each probed node's self time (its elapsed time minus its
// probed children's) and rows out to the per-class totals.
func selfTimes(op exec.Operator, self map[string]time.Duration, rows map[string]int64) {
	p, ok := op.(*exec.Probe)
	if !ok {
		return
	}
	st := p.Stats()
	d := st.Elapsed
	for _, c := range p.Children() {
		if cp, ok := c.(*exec.Probe); ok {
			d -= cp.Stats().Elapsed
		}
		selfTimes(c, self, rows)
	}
	cls := opClass(p.Inner)
	self[cls] += d
	rows[cls] += st.Rows
}

// layerStats accumulates the in-process replay's timings.
type layerStats struct {
	reads, writes, derived        int
	parseUs, rewriteUs, planUs    []float64
	collectMs, coreUs             []float64
	tracedMs, plainMs, maintainUs []float64
	self                          map[string]time.Duration
	rows                          map[string]int64
	collectTotal                  time.Duration
	allocBytes, gcs               uint64
}

// measured brackets one engine call with runtime.ReadMemStats, adding its
// allocations and GC cycles to s.
func (s *layerStats) measured(fn func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	s.gcs += uint64(m1.NumGC - m0.NumGC)
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replayRead runs one read through each layer's public entry point in turn
// (parse, rewrite, plan, instrumented execution), checks the rows, times
// core derivation for the same window, and finally runs the read once more
// through Engine.ExecContext untraced.
func replayRead(e *engine.Engine, spillCfg *spill.Config, wl workload, o op, s *layerStats, t *tally) {
	ctx := context.Background()
	s.reads++
	t0 := time.Now()
	stmt, err := sqlparser.Parse(o.sql)
	t1 := time.Now()
	if err != nil {
		t.note(err, "parse "+o.sql)
		return
	}
	rw, d, err := e.RewriteSelect(stmt.(sqlparser.SelectStatement))
	t2 := time.Now()
	if err != nil {
		t.note(err, "rewrite "+o.sql)
		return
	}
	if d != nil && !d.Exact {
		s.derived++
	}
	root, err := plan.New(e.Cat, plan.Options{
		NativeWindow: e.Opts.NativeWindow, UseIndexes: e.Opts.UseIndexes, UseHashJoin: e.Opts.UseHashJoin,
		WindowParallelism: e.Opts.WindowParallelism, Ctx: ctx, Spill: spillCfg,
	}).PlanSelect(rw)
	t3 := time.Now()
	if err != nil {
		t.note(err, "plan "+o.sql)
		return
	}
	root = exec.Instrument(root)
	rows, err := exec.CollectCtx(ctx, root)
	t4 := time.Now()
	if err == nil {
		err = o.check(toWire(rows))
	}
	t.note(err, "traced "+o.sql)
	s.parseUs = append(s.parseUs, us(t1.Sub(t0)))
	s.rewriteUs = append(s.rewriteUs, us(t2.Sub(t1)))
	s.planUs = append(s.planUs, us(t3.Sub(t2)))
	s.collectMs = append(s.collectMs, ms(t4.Sub(t3)))
	s.tracedMs = append(s.tracedMs, ms(t4.Sub(t0)))
	s.collectTotal += t4.Sub(t3)
	selfTimes(root, s.self, s.rows)

	if seq, win, err := wl.viewSeq(o); err == nil {
		c0 := time.Now()
		_, _ = core.Derive(seq, win) // a window core cannot derive is timed too
		s.coreUs = append(s.coreUs, us(time.Since(c0)))
	}

	var res *engine.Result
	d2 := s.measured(func() { res, err = e.ExecContext(ctx, o.sql) })
	if err == nil {
		err = o.check(toWire(res.Rows))
	}
	t.note(err, "untraced "+o.sql)
	s.plainMs = append(s.plainMs, ms(d2))
}

// replayWrite applies one write on the deferred-mode engine and times the
// drain that folds its delta into the views.
func replayWrite(e *engine.Engine, o op, s *layerStats, t *tally) {
	s.writes++
	var res *engine.Result
	var err error
	s.measured(func() { res, err = e.ExecContext(context.Background(), o.sql) })
	if err == nil && res.Affected != o.affected {
		err = fmt.Errorf("affected %d rows, want %d", res.Affected, o.affected)
	}
	t.note(err, "in-process "+o.sql)
	if err == nil {
		o.apply()
	}
	t0 := time.Now()
	e.DrainMaintenance()
	s.maintainUs = append(s.maintainUs, us(time.Since(t0)))
}

// tracedRun sets up once, repeats the wire phase with per-request client
// metrics and server counters, crashes and restarts the server, recovers a
// copy of the crashed data directory in-process, and replays the first part
// of the same operation sequence in-process through each layer. It reports
// the per-layer metrics.
func tracedRun(cfg config, dir string, rec map[string]any) (*result, error) {
	var t tally
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.size, dir)
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(dir, "data")
	p, c0, _, err := setUp(cfg, wl, dataDir, filepath.Join(dir, "server.log"), &t)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	c0.Close()
	c, cc, err := dial(p.addr)
	if err != nil {
		return nil, err
	}
	w, err := runWire(cfg, wl, p, c, cc, &t)
	c.Close()
	if err != nil {
		return nil, err
	}
	restarts, err := crashAndRestart(cfg, wl, p, dataDir, dir, &t)
	if err != nil {
		return nil, err
	}

	// wal: recover a copy of the killed directory in-process.
	cp := filepath.Join(dir, "recover")
	if err := copyDir(dataDir, cp); err != nil {
		return nil, err
	}
	t0 := time.Now()
	mgr, err := openDurable(wl, cp, mview.ModeEager)
	if err != nil {
		return nil, err
	}
	recoverS := time.Since(t0).Seconds()
	replayed := mgr.Recovery().RecordsReplayed
	t.note(wl.verify(engineQuerier(mgr.Engine())), "in-process recovery check")
	if err := closeDurable(mgr); err != nil {
		return nil, err
	}

	// The in-process twin: same seed, same statements, deferred views.
	twin, err := newWorkload(cfg.workload, cfg.seed, cfg.size, dir)
	if err != nil {
		return nil, err
	}
	tm, err := openDurable(twin, filepath.Join(dir, "twin"), mview.ModeDeferred)
	if err != nil {
		return nil, err
	}
	// The twin's files are scratch under dir: a failure to close them
	// changes nothing the run reports.
	defer func() { _ = closeDurable(tm) }()
	e := tm.Engine()
	for _, s := range twin.setup() {
		if _, err := e.ExecContext(context.Background(), s); err != nil {
			return nil, fmt.Errorf("twin set-up: %w", err)
		}
	}
	for i, n := 0, twin.warmupOps(); i < n; i++ {
		o := twin.next()
		if o.kind == opRead {
			res, err := e.ExecContext(context.Background(), o.sql)
			if err == nil {
				err = o.check(toWire(res.Rows))
			}
			t.note(err, "twin warm-up "+o.sql)
		} else {
			replayWrite(e, o, &layerStats{}, &t)
		}
	}
	spillCfg := &spill.Config{Budget: e.SpillBudget(), Env: spill.NewEnv(filepath.Join(dir, "twin-spill")), Stats: &spill.Stats{}}
	defer spillCfg.Env.Close()
	s := &layerStats{self: map[string]time.Duration{}, rows: map[string]int64{}}
	n := int(float64(twin.opsPerSecond()*cfg.seconds) * cfg.replayShare)
	for i := 0; i < n; i++ {
		if o := twin.next(); o.kind == opRead {
			replayRead(e, spillCfg, twin, o, s, &t)
		} else {
			replayWrite(e, o, s, &t)
		}
	}
	c1 := time.Now()
	if err := tm.Checkpoint(); err != nil {
		return nil, err
	}
	checkpointMs := ms(time.Since(c1))

	regime(cfg.workload, w, float64(s.derived)/float64(max(1, s.reads)), rec)
	rec["measured_steal_ticks"], rec["reads"], rec["writes"] = w.steal, w.reads, w.writes
	return &result{Attempted: t.attempted, Failed: t.failed,
		Metrics: layerMetrics(w, s, median(restarts), recoverS, replayed, checkpointMs, rec["regime_ok"].(bool))}, nil
}

func layerMetrics(w *wirePhase, s *layerStats, restartS, recoverS float64, replayed int, checkpointMs float64, regimeOK bool) map[string]metric {
	b, a := w.before, w.after
	reads, ops := float64(max(1, w.reads)), float64(max(1, w.reads+w.writes))
	wire := make([]float64, len(w.roundtripUs))
	for i := range wire {
		wire[i] = w.roundtripUs[i] - w.serverUs[i]
	}
	hits := float64(a.PlanCache.Hits-b.PlanCache.Hits) - float64(a.PlanCache.Invalidations-b.PlanCache.Invalidations)
	pHits, pMisses := float64(a.BufferPool.Hits-b.BufferPool.Hits), float64(a.BufferPool.Misses-b.BufferPool.Misses)
	fsyncs := w.metAfter["rfview_wal_fsync_seconds_count"] - w.metBefore["rfview_wal_fsync_seconds_count"]
	fsyncS := w.metAfter["rfview_wal_fsync_seconds_sum"] - w.metBefore["rfview_wal_fsync_seconds_sum"]
	share := func(cls string) float64 {
		return 100 * float64(s.self[cls]) / float64(max(1, s.collectTotal))
	}
	perRead := func(cls string) float64 { return float64(s.rows[cls]) / float64(max(1, s.reads)) }
	replayOps := float64(max(1, s.reads+s.writes))
	ok := 0.0
	if regimeOK {
		ok = 1
	}
	return map[string]metric{
		"client.roundtrip_us":        {median(w.roundtripUs), "us"},
		"server.elapsed_us":          {median(w.serverUs), "us"},
		"server.restart_s":           {restartS, "s"},
		"client.wire_us":             {median(wire), "us"},
		"client.resp_kb":             {float64(w.respBytes) / reads / 1024, "KiB"},
		"client.write_p50_ms":        {quantile(w.writeLat, 0.5), "ms"},
		"client.write_p90_ms":        {quantile(w.writeLat, 0.9), "ms"},
		"sqlparser.parse_us":         {median(s.parseUs), "us"},
		"qcache.hit_ratio":           {hits / reads, "ratio"},
		"rewrite.derive_us":          {median(s.rewriteUs), "us"},
		"rewrite.derived_share":      {float64(s.derived) / float64(max(1, s.reads)), "ratio"},
		"plan.plan_us":               {median(s.planUs), "us"},
		"exec.collect_ms":            {median(s.collectMs), "ms"},
		"exec.join_self_pct":         {share("join"), "%"},
		"exec.join_rows":             {perRead("join"), "count"},
		"exec.window_self_pct":       {share("window"), "%"},
		"exec.window_rows":           {perRead("window"), "count"},
		"exec.sort_self_pct":         {share("sort"), "%"},
		"exec.sort_rows":             {perRead("sort"), "count"},
		"exec.scan_self_pct":         {share("scan"), "%"},
		"exec.scan_rows":             {perRead("scan"), "count"},
		"core.derive_us":             {median(s.coreUs), "us"},
		"mview.maintain_us":          {mean(s.maintainUs), "us"},
		"mview.delta_applied":        {float64(a.Maintenance.DeltaApplied - b.Maintenance.DeltaApplied), "count"},
		"mview.full_refreshes":       {float64(a.Maintenance.FullRefreshes - b.Maintenance.FullRefreshes), "count"},
		"txn.commits":                {float64(a.Txn.Commits - b.Txn.Commits), "count"},
		"txn.conflict_aborts":        {float64(a.Txn.ConflictAborts - b.Txn.ConflictAborts), "count"},
		"wal.fsync_us":               {1e6 * fsyncS / max(1, fsyncs), "us"},
		"wal.checkpoint_ms":          {checkpointMs, "ms"},
		"wal.recover_s":              {recoverS, "s"},
		"wal.records_replayed":       {float64(replayed), "count"},
		"storage.pool_hit_ratio":     {pHits / max(1, pHits+pMisses), "ratio"},
		"storage.misses_per_op":      {pMisses / ops, "count"},
		"storage.evictions_per_op":   {float64(a.BufferPool.Evictions-b.BufferPool.Evictions) / ops, "count"},
		"storage.writebacks_per_op":  {float64(a.BufferPool.Writebacks-b.BufferPool.Writebacks) / ops, "count"},
		"spill.runs_per_read":        {float64(a.Spill.Runs-b.Spill.Runs) / reads, "count"},
		"spill.bytes_per_read":       {float64(a.Spill.RunBytes-b.Spill.RunBytes) / reads, "B"},
		"engine.alloc_kb_per_op":     {float64(s.allocBytes) / 1024 / replayOps, "KiB"},
		"engine.gc_per_op":           {float64(s.gcs) / replayOps, "count"},
		"trace.read_p50_ms":          {quantile(s.tracedMs, 0.5), "ms"},
		"trace.untraced_read_p50_ms": {quantile(s.plainMs, 0.5), "ms"},
		"trace.wire_read_p50_ms":     {quantile(w.readLat, 0.5), "ms"},
		"regime.ok":                  {ok, "count"},
	}
}
