package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/simllm"
	"repro/internal/spider"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// modelSeed is the simulated model's noise seed. It is fixed, and equal
// to galois-serve's default, so every workload and every reference talks
// to the same model; the workload seed only shapes the query lists.
const modelSeed = 1

// rel is the comparable form of a result relation: column names, types
// and each cell as the engine renders it (the same rendering the
// server's JSON and NDJSON frames carry).
type rel struct {
	Columns []string   `json:"columns"`
	Types   []string   `json:"types"`
	Rows    [][]string `json:"rows"`
}

func canon(r *schema.Relation) rel {
	out := rel{
		Columns: make([]string, r.Schema.Len()),
		Types:   make([]string, r.Schema.Len()),
		Rows:    make([][]string, len(r.Rows)),
	}
	for i, c := range r.Schema.Columns {
		out.Columns[i] = c.QualifiedName()
		out.Types[i] = c.Type.String()
	}
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out.Rows[i] = cells
	}
	return out
}

// digest is what a check needs to know of a reference relation: its
// schema, its row count, a hash of its rows as a multiset and, when the
// statement orders them, a hash of the ORDER BY keys row by row (rows
// tied on the keys may come in any order). An ORDER BY item that is not
// a plain result column makes the whole row the key. Keeping digests
// rather than relations keeps the references' memory out of the
// measured process.
type digest struct {
	Schema   string `json:"schema"`
	Rows     int    `json:"rows"`
	Multiset string `json:"multiset"`
	Order    string `json:"order,omitempty"`
}

func digestOf(sql string, r rel) digest {
	rows := joinRows(r.Rows, nil)
	slices.Sort(rows)
	d := digest{
		Schema:   strings.Join(r.Columns, ",") + " " + strings.Join(r.Types, ","),
		Rows:     len(r.Rows),
		Multiset: hashStrings(rows),
	}
	if ordered, keys := orderKeys(sql, r.Columns); ordered {
		d.Order = hashStrings(joinRows(r.Rows, keys))
	}
	return d
}

func hashStrings(xs []string) string {
	h := sha256.New()
	for _, x := range xs {
		h.Write([]byte(x))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkRel compares a result against its reference digest.
func checkRel(sql string, want digest, got rel) error {
	d := digestOf(sql, got)
	switch {
	case d.Schema != want.Schema:
		return fmt.Errorf("schema %q, want %q", d.Schema, want.Schema)
	case d.Rows != want.Rows:
		return fmt.Errorf("%d rows, want %d", d.Rows, want.Rows)
	case d.Multiset != want.Multiset:
		return errors.New("rows differ from the reference")
	case d.Order != want.Order:
		return errors.New("rows are out of the reference's ORDER BY order")
	}
	return nil
}

// sameRel compares two results of one statement.
func sameRel(sql string, want, got rel) error { return checkRel(sql, digestOf(sql, want), got) }

// checkLimit checks a LIMIT/OFFSET consumer's answer against the whole
// relation of its producer. Without ORDER BY, SQL leaves open which rows
// a LIMIT keeps, so the answer must be a sub-multiset of the producer's
// rows of the size the bounds give, in the producer's schema.
func checkLimit(spec limitSpec, whole, got rel) error {
	want := min(spec.limit, max(len(whole.Rows)-spec.offset, 0))
	switch {
	case !slices.Equal(got.Columns, whole.Columns) || !slices.Equal(got.Types, whole.Types):
		return fmt.Errorf("schema %v %v, want the producer's %v %v", got.Columns, got.Types, whole.Columns, whole.Types)
	case len(got.Rows) != want:
		return fmt.Errorf("%d rows, want %d", len(got.Rows), want)
	}
	left := map[string]int{}
	for _, r := range joinRows(whole.Rows, nil) {
		left[r]++
	}
	for _, r := range joinRows(got.Rows, nil) {
		if left[r] == 0 {
			return errors.New("a row the producer does not hold")
		}
		left[r]--
	}
	return nil
}

// orderKeys reports whether sql orders its rows and, if every ORDER BY
// item names exactly one result column, those columns' indexes (nil
// means the whole row is the key).
func orderKeys(sql string, cols []string) (bool, []int) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return true, nil
	}
	sel, ok := stmt.(*ast.Select)
	if !ok || len(sel.OrderBy) == 0 {
		return !ok, nil
	}
	var keys []int
	for _, item := range sel.OrderBy {
		ref, ok := item.Expr.(*ast.ColumnRef)
		if !ok {
			return true, nil
		}
		match := -1
		for i, c := range cols {
			table, name := "", c
			if dot := strings.LastIndexByte(c, '.'); dot >= 0 {
				table, name = c[:dot], c[dot+1:]
			}
			if strings.EqualFold(name, ref.Name) && (ref.Table == "" || strings.EqualFold(table, ref.Table)) {
				if match >= 0 {
					return true, nil
				}
				match = i
			}
		}
		if match < 0 {
			return true, nil
		}
		keys = append(keys, match)
	}
	return true, keys
}

// joinRows renders each row, or only its key columns, as one string.
func joinRows(rows [][]string, keys []int) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		if keys != nil {
			k := make([]string, len(keys))
			for j, c := range keys {
				k[j] = r[c]
			}
			r = k
		}
		out[i] = strings.Join(r, "\x1f")
	}
	return out
}

// checkColdCalls is cold's property: every model call the wrapped client
// saw is one the engine reported in Report.Stats.Prompts.
func checkColdCalls(calls, reportedPrompts int64) error {
	if calls != reportedPrompts {
		return fmt.Errorf("wrapped client saw %d model calls, reports sum to %d prompts", calls, reportedPrompts)
	}
	return nil
}

// checkHitCalls is prompt-hit's property: a warm prompt cache answers
// every prompt, so no call reaches the model.
func checkHitCalls(calls int64) error {
	if calls != 0 {
		return fmt.Errorf("wrapped client saw %d model calls, want 0", calls)
	}
	return nil
}

// selfTest shows that the checks catch what they exist to catch: a
// corrupted relation, a lost row, a reordered ordered result, a LIMIT
// answer with a row its producer lacks or of the wrong size, and a model
// call the engine did not report or should not have made.
func selfTest() error {
	good := rel{Columns: []string{"name", "population"}, Types: []string{"TEXT", "INT"},
		Rows: [][]string{{"Paris", "2100000"}, {"Lyon", "500000"}}}
	if err := sameRel("SELECT name, population FROM city", good, good); err != nil {
		return fmt.Errorf("self-test: identical relations differ: %v", err)
	}
	swapped := rel{Columns: good.Columns, Types: good.Types, Rows: [][]string{good.Rows[1], good.Rows[0]}}
	if err := sameRel("SELECT name, population FROM city", good, swapped); err != nil {
		return fmt.Errorf("self-test: order-open comparison is not a multiset comparison: %v", err)
	}
	tied := rel{Columns: good.Columns, Types: good.Types, Rows: [][]string{{"Lyon", "1"}, {"Paris", "1"}, {"Nice", "2"}}}
	tiedSwapped := rel{Columns: good.Columns, Types: good.Types, Rows: [][]string{tied.Rows[1], tied.Rows[0], tied.Rows[2]}}
	if err := sameRel("SELECT name, population FROM city ORDER BY population", tied, tiedSwapped); err != nil {
		return fmt.Errorf("self-test: rows tied on the ORDER BY key must compare in any order: %v", err)
	}
	corrupt := rel{Columns: good.Columns, Types: good.Types, Rows: [][]string{good.Rows[0], {"Lyon", "500001"}}}
	cases := []struct {
		name string
		sql  string
		got  rel
	}{
		{"corrupted cell", "SELECT name, population FROM city", corrupt},
		{"lost row", "SELECT name, population FROM city", rel{Columns: good.Columns, Types: good.Types, Rows: good.Rows[:1]}},
		{"reordered ordered rows", "SELECT name, population FROM city ORDER BY population", swapped},
		{"reordered rows, ORDER BY an expression", "SELECT name, population FROM city ORDER BY population + 1", swapped},
		{"renamed column", "SELECT name, population FROM city", rel{Columns: []string{"name", "pop"}, Types: good.Types, Rows: good.Rows}},
	}
	for _, c := range cases {
		if sameRel(c.sql, good, c.got) == nil {
			return fmt.Errorf("self-test: %s was not caught", c.name)
		}
	}
	spec := limitSpec{producer: "SELECT name, population FROM city", limit: 1, offset: 1}
	if err := checkLimit(spec, good, rel{Columns: good.Columns, Types: good.Types, Rows: good.Rows[:1]}); err != nil {
		return fmt.Errorf("self-test: a row of the producer was rejected as a LIMIT answer: %v", err)
	}
	if checkLimit(spec, good, rel{Columns: good.Columns, Types: good.Types, Rows: corrupt.Rows[1:]}) == nil {
		return errors.New("self-test: a LIMIT answer with a row the producer lacks was not caught")
	}
	if checkLimit(spec, good, good) == nil {
		return errors.New("self-test: a LIMIT answer of the wrong size was not caught")
	}
	if checkColdCalls(42, 42) != nil || checkHitCalls(0) != nil {
		return errors.New("self-test: consistent call counts rejected")
	}
	if checkColdCalls(43, 42) == nil {
		return errors.New("self-test: an extra model call on cold was not caught")
	}
	if checkHitCalls(1) == nil {
		return errors.New("self-test: a model call on prompt-hit was not caught")
	}
	return nil
}

// referenceOptions is the configuration every reference runs under:
// the workload's planner settings with the prompt cache and the result
// cache off. Serve plans cost-based, as galois-serve does by default;
// the in-process workloads keep the engine default. The choice matters:
// the two planners can pick plans whose answers differ.
func referenceOptions(costBased bool) core.Options {
	opts := core.DefaultOptions()
	opts.Optimizer.CostBased = costBased
	opts.CacheEnabled = false
	opts.ResultCacheEnabled = false
	return opts
}

// referencer computes reference relations, each on a fresh runtime so
// no cache or learned statistic carries over from another query.
type referencer struct {
	runner *bench.Runner
	model  llm.Client
	opts   core.Options
	refs   map[string]digest
}

func newReferencer(costBased bool) (*referencer, error) {
	r, err := bench.NewRunner(modelSeed)
	if err != nil {
		return nil, err
	}
	return &referencer{runner: r, model: r.Model(simllm.ChatGPT), opts: referenceOptions(costBased), refs: map[string]digest{}}, nil
}

// ensure computes the references of every statement not yet known.
func (rf *referencer) ensure(ctx context.Context, sqls []string) error {
	for _, sql := range sqls {
		if _, ok := rf.refs[sql]; ok {
			continue
		}
		got, err := rf.query(ctx, sql)
		if err != nil {
			return err
		}
		rf.refs[sql] = digestOf(sql, canon(got))
	}
	return nil
}

func (rf *referencer) query(ctx context.Context, sql string) (*schema.Relation, error) {
	rt, err := rf.runner.Runtime(rf.model, rf.opts)
	if err != nil {
		return nil, err
	}
	got, _, err := rt.NewSession().Query(ctx, sql)
	if err != nil {
		return nil, fmt.Errorf("reference for %q: %w", sql, err)
	}
	return got, nil
}

// cellMatch is the reference figure of the spider corpus: the mean
// eval.MatchContent percentage of Galois's answers (R_M) against the
// ground-truth database (R_D), as in the paper's Table 2.
func (rf *referencer) cellMatch(ctx context.Context) (float64, error) {
	var pcts []float64
	for _, q := range spider.Queries() {
		truth, err := rf.runner.GroundTruth(ctx, q.SQL)
		if err != nil {
			return 0, err
		}
		got, err := rf.query(ctx, q.SQL)
		if err != nil {
			return 0, err
		}
		pcts = append(pcts, eval.MatchContent(truth, got, rf.runner.CellOptions()).Percent())
	}
	return eval.Mean(pcts), nil
}
