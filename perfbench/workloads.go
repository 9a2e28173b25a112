package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"rfview/internal/core"
	"rfview/internal/engine"
	"rfview/internal/sqlparser"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one statement of a workload's seeded sequence. A read carries the
// window it asks for and a check against the load process's own ledger; a
// write carries the ledger update to apply once the server acknowledges it.
type op struct {
	kind opKind
	sql  string
	// read: check verifies the returned rows; agg/l/h/acct describe the
	// window so the traced run can time core derivation for it.
	check func(rows [][]any) error
	agg   string
	l, h  int
	acct  int
	// write: affected is the expected row count; apply folds the write
	// into the ledger after it is acknowledged.
	affected int
	apply    func()
}

// querier is the slice of a client or engine the durability checks need.
type querier func(sql string) ([][]any, error)

// workload is one seeded operation sequence plus the ledger that checks it.
// Every instance built from the same seed and size yields the same
// statements, provided every write is acknowledged.
type workload interface {
	// flags are the rfserverd flags besides -addr and -data-dir.
	flags() []string
	// setup is the schema, the data load, and the index and view builds.
	setup() []string
	// probe is the verified read that ends set-up and restart.
	probe() op
	// next returns the next operation of the sequence.
	next() op
	// verify checks the whole durable state against the ledger.
	verify(q querier) error
	// viewSeq returns the sequence the view holds for the read's rows (the
	// account's partition, for a partitioned view) and the read's window,
	// for timing core derivation.
	viewSeq(o op) (*core.Sequence, core.Window, error)
	// opsPerSecond scales the measured operation count with --seconds.
	opsPerSecond() int
	// warmupOps is the number of untimed operations before measuring.
	warmupOps() int
	// repeats is how many set-ups and restarts a run times; it reports
	// their medians.
	repeats() int
}

// size scales workloads down for the smoke test.
type size struct {
	seqRows     int    // derived_reports rows
	dashRows    int    // cached_dashboard rows
	accts, days int    // warehouse_ingest accounts × days
	budget      string // warehouse_ingest -mem-budget
}

var fullSize = size{seqRows: 200, dashRows: 2000, accts: 20, days: 1000, budget: "3MiB"}

func newWorkload(name string, seed int64, sz size, workDir string) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "derived_reports":
		return newDerived(rng, sz.seqRows, workDir)
	case "cached_dashboard":
		return newDashboard(rng, sz.dashRows, workDir)
	case "warehouse_ingest":
		return newWarehouse(rng, sz.accts, sz.days, sz.budget), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloadNames = []string{"derived_reports", "cached_dashboard", "warehouse_ingest"}

// ---- ledger arithmetic, independent of internal/core and the engine ----

// windowSums returns, for positions 1..len(vals), the exact integer sum
// and row count of vals over [p-l, p+h] clipped to the data.
func windowSums(vals []int64, l, h int) (sums, counts []int64) {
	n := len(vals)
	prefix := make([]int64, n+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	sums, counts = make([]int64, n), make([]int64, n)
	for p := 1; p <= n; p++ {
		lo, hi := max(1, p-l), min(n, p+h)
		sums[p-1] = prefix[hi] - prefix[lo-1]
		counts[p-1] = int64(hi - lo + 1)
	}
	return sums, counts
}

// expectWindow is the ledger's answer to agg over (l PRECEDING, h
// FOLLOWING) on vals, position by position.
func expectWindow(vals []int64, agg string, l, h int) []float64 {
	sums, counts := windowSums(vals, l, h)
	out := make([]float64, len(vals))
	for i := range out {
		switch agg {
		case "SUM":
			out[i] = float64(sums[i])
		case "COUNT":
			out[i] = float64(counts[i])
		case "AVG":
			out[i] = float64(sums[i]) / float64(counts[i])
		}
	}
	return out
}

// checkSeries verifies rows of (pos, value) against want, indexed by pos-1:
// every position exactly once, every value bit-exact.
func checkSeries(rows [][]any, want []float64) error {
	if len(rows) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(rows), len(want))
	}
	seen := make([]bool, len(want))
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Errorf("row %v: want 2 columns", r)
		}
		pos, ok1 := r[0].(float64)
		v, ok2 := r[1].(float64)
		p := int(pos)
		if !ok1 || !ok2 || float64(p) != pos || p < 1 || p > len(want) || seen[p-1] {
			return fmt.Errorf("bad row %v", r)
		}
		seen[p-1] = true
		if v != want[p-1] {
			return fmt.Errorf("pos %d: got %v, want %v", p, v, want[p-1])
		}
	}
	return nil
}

func frameBound(n int, dir string) string {
	if n == 0 {
		return "CURRENT ROW"
	}
	return fmt.Sprintf("%d %s", n, dir)
}

func windowSQL(agg string, l, h int, from string) string {
	return fmt.Sprintf("SELECT pos, %s(val) OVER (ORDER BY pos ROWS BETWEEN %s AND %s) AS s FROM %s",
		agg, frameBound(l, "PRECEDING"), frameBound(h, "FOLLOWING"), from)
}

// denseInserts renders INSERT statements of at most per rows each.
func denseInserts(table string, vals []int64, per int) []string {
	var out []string
	for i := 0; i < len(vals); i += per {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s (pos, val) VALUES ", table)
		for j := i; j < min(len(vals), i+per); j++ {
			if j > i {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", j+1, vals[j])
		}
		out = append(out, b.String())
	}
	return out
}

// seqSchema is the dense sequence, its unique index, and the (2,2) SUM view
// shared by derived_reports and cached_dashboard.
func seqSchema(vals []int64) []string {
	s := []string{"CREATE TABLE seq (pos INTEGER, val INTEGER)"}
	s = append(s, denseInserts("seq", vals, 100)...)
	return append(s,
		"CREATE UNIQUE INDEX seq_pos ON seq (pos)",
		"CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq")
}

var viewWindow = core.Window{Preceding: 2, Following: 2}

func randVals(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(1000)
	}
	return vals
}

// classify runs setup on a scratch in-memory engine and reports, for each
// query, whether the rewrite derives it non-exactly from a view (+1),
// answers it from a view exactly (0), or leaves it native (-1).
func classify(setup, queries []string, workDir string) ([]int, error) {
	dir, err := os.MkdirTemp(workDir, "classify-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := engine.DefaultOptions()
	opts.DisablePagedStorage = true
	opts.SpillDir = dir
	e := engine.New(opts)
	defer e.Close()
	for _, s := range setup {
		if _, err := e.ExecContext(context.Background(), s); err != nil {
			return nil, fmt.Errorf("classify setup: %w", err)
		}
	}
	out := make([]int, len(queries))
	for i, q := range queries {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, err
		}
		_, d, err := e.RewriteSelect(stmt.(sqlparser.SelectStatement))
		switch {
		case err != nil:
			return nil, err
		case d == nil:
			out[i] = -1
		case d.Exact:
			out[i] = 0
		default:
			out[i] = 1
		}
	}
	return out, nil
}

// ---- derived_reports ----

// derived is a 200-row dense sequence with a (2,2) SUM view. Each cycle is
// nine SUM window reads over distinct shapes the rewrite derives
// non-exactly (so the result cache never answers them), then one point
// UPDATE of a seeded row.
type derived struct {
	rng    *rand.Rand
	vals   []int64
	shapes [][2]int
	// order is the rest of a seeded permutation of shapes. Cycles take
	// their reads from it in turn, so every run reads each shape about
	// equally often and the seed changes the order, not the mix.
	order []int
	cycle []op
}

func newDerived(rng *rand.Rand, n int, workDir string) (*derived, error) {
	w := &derived{rng: rng, vals: randVals(rng, n)}
	var cands [][2]int
	var qs []string
	for l := 0; l <= 12; l++ {
		for h := 0; h <= 12; h++ {
			cands = append(cands, [2]int{l, h})
			qs = append(qs, windowSQL("SUM", l, h, "seq"))
		}
	}
	kinds, err := classify(w.setup(), qs, workDir)
	if err != nil {
		return nil, err
	}
	for i, k := range kinds {
		if k == 1 {
			w.shapes = append(w.shapes, cands[i])
		}
	}
	if len(w.shapes) < 9 {
		return nil, fmt.Errorf("derived_reports: only %d derivable shapes", len(w.shapes))
	}
	return w, nil
}

func (w *derived) flags() []string   { return nil }
func (w *derived) setup() []string   { return seqSchema(w.vals) }
func (w *derived) opsPerSecond() int { return 20 }
func (w *derived) warmupOps() int    { return 10 }
func (w *derived) repeats() int      { return 15 }

func (w *derived) read(l, h int) op {
	return op{kind: opRead, sql: windowSQL("SUM", l, h, "seq"), agg: "SUM", l: l, h: h,
		check: func(rows [][]any) error { return checkSeries(rows, expectWindow(w.vals, "SUM", l, h)) }}
}

func (w *derived) probe() op { s := w.shapes[len(w.shapes)/2]; return w.read(s[0], s[1]) }

func (w *derived) next() op {
	if len(w.cycle) == 0 {
		if len(w.order) < 9 {
			w.order = w.rng.Perm(len(w.shapes))
		}
		for _, i := range w.order[:9] {
			w.cycle = append(w.cycle, w.read(w.shapes[i][0], w.shapes[i][1]))
		}
		w.order = w.order[9:]
		pos, val := 1+w.rng.Intn(len(w.vals)), 1+w.rng.Int63n(1000)
		w.cycle = append(w.cycle, op{kind: opWrite, affected: 1,
			sql:   fmt.Sprintf("UPDATE seq SET val = %d WHERE pos = %d", val, pos),
			apply: func() { w.vals[pos-1] = val }})
	}
	o := w.cycle[0]
	w.cycle = w.cycle[1:]
	return o
}

func (w *derived) verify(q querier) error { return verifyDense(q, w.vals) }

func (w *derived) viewSeq(o op) (*core.Sequence, core.Window, error) {
	return viewSequence(w.vals, o)
}

func viewSequence(vals []int64, o op) (*core.Sequence, core.Window, error) {
	raw := make([]float64, len(vals))
	for i, v := range vals {
		raw[i] = float64(v)
	}
	s, err := core.ComputePipelined(raw, viewWindow, core.Sum)
	return s, core.Window{Preceding: o.l, Following: o.h}, err
}

// verifyDense checks every row of seq against the ledger.
func verifyDense(q querier, vals []int64) error {
	rows, err := q("SELECT pos, val FROM seq")
	if err != nil {
		return err
	}
	want := make([]float64, len(vals))
	for i, v := range vals {
		want[i] = float64(v)
	}
	if err := checkSeries(rows, want); err != nil {
		return fmt.Errorf("seq contents: %w", err)
	}
	return nil
}

// ---- cached_dashboard ----

// dashboard is a 2,000-row dense sequence with the same view, read by a
// round-robin over four fixed reports: the exact view query and three
// windows the view cannot derive, all cheap to recompute on a miss. The
// sequence itself is never written; after every ninth read one event lands
// in a separate staging table, which leaves the reports' cache entries
// valid.
type dashboard struct {
	rng     *rand.Rand
	vals    []int64
	reports []op
	i       int
	events  int64 // acknowledged staging inserts
	evSum   int64
}

func newDashboard(rng *rand.Rand, n int, workDir string) (*dashboard, error) {
	w := &dashboard{rng: rng, vals: randVals(rng, n)}
	type rep struct {
		agg  string
		l, h int
	}
	reps := []rep{{"SUM", 2, 2}, {"SUM", 7, 7}, {"COUNT", 3, 3}, {"AVG", 4, 4}}
	var qs []string
	for _, r := range reps {
		qs = append(qs, windowSQL(r.agg, r.l, r.h, "seq"))
	}
	kinds, err := classify(w.setup(), qs, workDir)
	if err != nil {
		return nil, err
	}
	want := []int{0, -1, -1, -1}
	for i, r := range reps {
		if kinds[i] != want[i] {
			return nil, fmt.Errorf("cached_dashboard: report %s(%d,%d) classified %d, want %d", r.agg, r.l, r.h, kinds[i], want[i])
		}
		r := r
		w.reports = append(w.reports, op{kind: opRead, sql: qs[i], agg: r.agg, l: r.l, h: r.h,
			check: func(rows [][]any) error { return checkSeries(rows, expectWindow(w.vals, r.agg, r.l, r.h)) }})
	}
	return w, nil
}

func (w *dashboard) flags() []string { return nil }
func (w *dashboard) setup() []string {
	return append(seqSchema(w.vals), "CREATE TABLE events (id INTEGER, v INTEGER)")
}
func (w *dashboard) opsPerSecond() int { return 330 }
func (w *dashboard) warmupOps() int    { return 200 }
func (w *dashboard) repeats() int      { return 15 }
func (w *dashboard) probe() op         { return w.reports[0] }

func (w *dashboard) next() op {
	w.i++
	if w.i%10 == 0 {
		id, v := w.i/10, 1+w.rng.Int63n(1000)
		return op{kind: opWrite, affected: 1,
			sql:   fmt.Sprintf("INSERT INTO events (id, v) VALUES (%d, %d)", id, v),
			apply: func() { w.events++; w.evSum += v }}
	}
	return w.reports[(w.i-w.i/10)%len(w.reports)]
}

func (w *dashboard) verify(q querier) error {
	if err := verifyDense(q, w.vals); err != nil {
		return err
	}
	rows, err := q("SELECT COUNT(*) AS n, SUM(v) AS s FROM events")
	if err != nil {
		return err
	}
	want := []any{float64(w.events), float64(w.evSum)}
	if w.events == 0 {
		want[1] = nil
	}
	if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0] != want[0] || rows[0][1] != want[1] {
		return fmt.Errorf("events: got %v, want %v", rows, want)
	}
	return nil
}

func (w *dashboard) viewSeq(o op) (*core.Sequence, core.Window, error) {
	return viewSequence(w.vals, o)
}

// ---- warehouse_ingest ----

// warehouse is a partitioned seq(acct, pos, val) of accounts × days under
// a memory budget smaller than the data, with a partitioned (2,2) SUM view.
// Each cycle appends one day for every account, then twice reads one
// account's trailing-7-day report (not rewritable: scan + sort + window)
// and corrects one past day of one account (full scan + band
// maintenance). Accounts are few and long, and appends are a fifth of the
// operations, so that a run grows the table by a small share. Corrections
// outnumber appends so the write median falls inside one population
// instead of on the gap between cheap appends and full-scan corrections.
type warehouse struct {
	rng    *rand.Rand
	vals   [][]int64 // [acct-1][pos-1]
	budget string
	step   int
	// catchUp is the number of corrections the sequence opens with; see
	// warmupOps.
	catchUp int
}

func newWarehouse(rng *rand.Rand, accts, days int, budget string) *warehouse {
	w := &warehouse{rng: rng, vals: make([][]int64, accts), budget: budget}
	for a := range w.vals {
		w.vals[a] = randVals(rng, days)
	}
	w.catchUp = max(0, 1024+8-len(w.setup()))
	return w
}

func (w *warehouse) flags() []string {
	return []string{"-fsync", "always", "-checkpoint-every", "1024", "-mem-budget", w.budget}
}

func (w *warehouse) opsPerSecond() int { return 75 }
func (w *warehouse) repeats() int      { return 2 }

// warmupOps covers the catch-up corrections and then six cycles. The
// catch-up carries the WAL past its first automatic checkpoint (1,024
// logged statements, set-up included) without growing the table: scans run
// slower after a checkpoint than before it, and crossing it before the
// measured phase keeps that phase in one state instead of straddling the
// step. The measured phase then ends before the next checkpoint.
func (w *warehouse) warmupOps() int { return w.catchUp + 30 }

// insertDays renders days [from, from+len(vals[0])) for every account as
// one INSERT; vals is indexed [acct-1][day-from].
func insertDays(from int, vals [][]int64) string {
	var b strings.Builder
	b.WriteString("INSERT INTO seq (acct, pos, val) VALUES ")
	for a, days := range vals {
		for d, v := range days {
			if a > 0 || d > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", a+1, from+d, v)
		}
	}
	return b.String()
}

// setup loads the data as INSERTs of about 100 rows: consecutive days for
// every account.
func (w *warehouse) setup() []string {
	s := []string{"CREATE TABLE seq (acct INTEGER, pos INTEGER, val INTEGER)"}
	per := max(1, 100/len(w.vals))
	days := len(w.vals[0])
	for d := 0; d < days; d += per {
		chunk := make([][]int64, len(w.vals))
		for a := range w.vals {
			chunk[a] = w.vals[a][d:min(days, d+per)]
		}
		s = append(s, insertDays(d+1, chunk))
	}
	return append(s, "CREATE MATERIALIZED VIEW mv AS SELECT acct, pos, SUM(val) OVER "+
		"(PARTITION BY acct ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS val FROM seq")
}

func (w *warehouse) report(acct int) op {
	return op{kind: opRead, agg: "SUM", l: 6, h: 0, acct: acct,
		sql: fmt.Sprintf("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS s FROM seq WHERE acct = %d", acct),
		check: func(rows [][]any) error {
			return checkSeries(rows, expectWindow(w.vals[acct-1], "SUM", 6, 0))
		}}
}

func (w *warehouse) probe() op { return w.report(1 + len(w.vals)/2) }

func (w *warehouse) next() op {
	if w.catchUp > 0 {
		w.catchUp--
		return w.correction()
	}
	w.step++
	switch w.step % 5 {
	case 1:
		return w.append()
	case 2, 4:
		return w.report(1 + w.rng.Intn(len(w.vals)))
	default:
		return w.correction()
	}
}

// append adds one new day for every account.
func (w *warehouse) append() op {
	day := make([][]int64, len(w.vals))
	for a := range day {
		day[a] = []int64{1 + w.rng.Int63n(1000)}
	}
	return op{kind: opWrite, affected: len(day), sql: insertDays(len(w.vals[0])+1, day), apply: func() {
		for a := range day {
			w.vals[a] = append(w.vals[a], day[a][0])
		}
	}}
}

// correction overwrites one past day of one account.
func (w *warehouse) correction() op {
	acct := 1 + w.rng.Intn(len(w.vals))
	pos := 1 + w.rng.Intn(len(w.vals[acct-1]))
	val := 1 + w.rng.Int63n(1000)
	return op{kind: opWrite, affected: 1,
		sql:   fmt.Sprintf("UPDATE seq SET val = %d WHERE acct = %d AND pos = %d", val, acct, pos),
		apply: func() { w.vals[acct-1][pos-1] = val }}
}

// verify checks every account's row count and SUM, then every cell of
// the view.
func (w *warehouse) verify(q querier) error {
	rows, err := q("SELECT acct, COUNT(*) AS n, SUM(val) AS s FROM seq GROUP BY acct")
	if err != nil {
		return err
	}
	got := map[float64][]any{}
	for _, r := range rows {
		if len(r) == 3 {
			got[toFloat(r[0])] = r
		}
	}
	if len(rows) != len(w.vals) || len(got) != len(w.vals) {
		return fmt.Errorf("got %d accounts, want %d", len(rows), len(w.vals))
	}
	for i, vals := range w.vals {
		var sum int64
		for _, v := range vals {
			sum += v
		}
		want := []any{float64(i + 1), float64(len(vals)), float64(sum)}
		r := got[float64(i+1)]
		if r == nil || r[1] != want[1] || r[2] != want[2] {
			return fmt.Errorf("account %d: got %v, want %v", i+1, r, want)
		}
	}
	return w.verifyView(q)
}

// verifyView checks the stored view: for every account, the (2,2) window
// sums over the view's domain [-1, n+2], whose edge cells hold partial sums
// (the form the derivations of §4–§5 read).
func (w *warehouse) verifyView(q querier) error {
	rows, err := q("SELECT part, pos, val FROM mv")
	if err != nil {
		return err
	}
	want := map[[2]int]float64{}
	for a, vals := range w.vals {
		n := len(vals)
		for p := -1; p <= n+2; p++ {
			var sum int64
			for k := max(1, p-2); k <= min(n, p+2); k++ {
				sum += vals[k-1]
			}
			want[[2]int{a + 1, p}] = float64(sum)
		}
	}
	if len(rows) != len(want) {
		return fmt.Errorf("view: got %d cells, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("view: bad row %v", r)
		}
		k := [2]int{int(toFloat(r[0])), int(toFloat(r[1]))}
		if v, ok := want[k]; !ok || toFloat(r[2]) != v {
			return fmt.Errorf("view cell %v: got %v, want %v", k, r[2], v)
		}
		delete(want, k)
	}
	return nil
}

func toFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

func (w *warehouse) viewSeq(o op) (*core.Sequence, core.Window, error) {
	return viewSequence(w.vals[o.acct-1], o)
}
