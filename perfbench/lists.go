package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/logical"
	"repro/internal/spider"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// Query-list make-up. The generated part of the list is stratified: the
// generator is drawn from until each class has exactly its quota, so a
// seed changes which queries run but never the share of each class. The
// quotas are difftest.Query's own draw probabilities over 1000 queries:
// half single-table (a quarter of them with LIMIT), a fifth aggregates,
// three tenths joins (a fifth of them with LIMIT).
const (
	quotaSingle      = 375 // single-table, LIMIT-free
	quotaSingleLimit = 125 // single-table with LIMIT/OFFSET
	quotaAggregate   = 200 // COUNT/SUM/AVG/MIN/MAX, GROUP BY
	quotaJoin        = 240 // two-table joins, LIMIT-free
	quotaJoinLimit   = 60  // two-table joins with LIMIT
)

// Per-pass make-up of the serve mix. No trace of production traffic
// exists in the repository to derive it from, so the shares are a
// choice: close to half of the requests are exact result-cache hits,
// a third are subsumed hits (LIMIT consumers and Pair children) and a
// fifth miss both caches, so that hits and inserts weigh alike in every
// figure; every 4th request is streamed.
const (
	serveWarm     = 200 // LIMIT-free statements the warm generation stores
	serveRepeats  = 40  // warm statements asked again: exact hits
	serveLimits   = 10  // LIMIT over a stored producer: subsumed hits
	serveChildren = 20  // difftest.Pair children of this pass's parents: subsumed hits
	serveNovel    = 20  // fresh-literal filters: miss both caches, call the model
	serveStreamed = 4   // every 4th slot is requested as NDJSON
)

// queryClass names the make-up class of one query.
type queryClass string

const (
	classSpider      queryClass = "spider"
	classSingle      queryClass = "single"
	classSingleLimit queryClass = "single-limit"
	classAggregate   queryClass = "aggregate"
	classJoin        queryClass = "join"
	classJoinLimit   queryClass = "join-limit"
)

// item is one query of a list.
type item struct {
	SQL   string
	Class queryClass
}

// classify sorts one generated query into its make-up class.
func classify(sql string) queryClass {
	limit := strings.Contains(sql, " LIMIT ") || strings.Contains(sql, " OFFSET ")
	switch {
	case strings.Contains(sql, " a, "):
		if limit {
			return classJoinLimit
		}
		return classJoin
	case strings.Contains(sql, "GROUP BY") || strings.Contains(sql, "COUNT(") ||
		strings.Contains(sql, "SUM(") || strings.Contains(sql, "AVG(") ||
		strings.Contains(sql, "MIN(") || strings.Contains(sql, "MAX("):
		return classAggregate
	case limit:
		return classSingleLimit
	default:
		return classSingle
	}
}

// baseList is the query list of cold and prompt-hit: the 46-query spider
// corpus followed by stratified difftest queries drawn on the seed.
func baseList(seed int64) []item {
	quota := map[queryClass]int{
		classSingle:      quotaSingle,
		classSingleLimit: quotaSingleLimit,
		classAggregate:   quotaAggregate,
		classJoin:        quotaJoin,
		classJoinLimit:   quotaJoinLimit,
	}
	seen := map[string]bool{}
	var out []item
	for _, q := range spider.Queries() {
		seen[q.SQL] = true
		out = append(out, item{SQL: q.SQL, Class: classSpider})
	}
	gen := difftest.New(seed)
	for left := quotaSingle + quotaSingleLimit + quotaAggregate + quotaJoin + quotaJoinLimit; left > 0; {
		sql := gen.Query().SQL
		c := classify(sql)
		if seen[sql] || quota[c] == 0 {
			continue
		}
		seen[sql] = true
		quota[c]--
		left--
		out = append(out, item{SQL: sql, Class: c})
	}
	return out
}

// hasLimit reports whether a statement truncates its result.
func hasLimit(sql string) bool {
	return strings.Contains(sql, " LIMIT ") || strings.Contains(sql, " OFFSET ")
}

// stripLimit removes a trailing LIMIT/OFFSET clause.
func stripLimit(sql string) string {
	for _, kw := range []string{" LIMIT ", " OFFSET "} {
		if i := strings.Index(sql, kw); i >= 0 {
			sql = sql[:i]
		}
	}
	return sql
}

// planInfo is what the benchmark learns about one statement from the
// engine's public planning API: the result-cache key material and
// whether its result can answer subsumed queries.
type planInfo struct {
	Fingerprint string
	Producer    bool
	Filtered    bool // some predicate filters the FROM tree's rows
}

// inspect builds sql's logical plan on sess and derives its planInfo.
func inspect(sess *core.Session, sql string) (planInfo, error) {
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		return planInfo{}, err
	}
	return inspectSelect(sess, sel)
}

// inspectSelect is inspect on a parsed statement.
func inspectSelect(sess *core.Session, sel *ast.Select) (planInfo, error) {
	built, err := logical.Build(sel, sess)
	if err != nil {
		return planInfo{}, err
	}
	info := planInfo{Fingerprint: logical.Fingerprint(built)}
	if shape := logical.Decompose(built); shape != nil {
		info.Producer, info.Filtered = shape.Producer, len(shape.Conjuncts) > 0
	}
	return info, nil
}

// slotKind is the role of one position in the serve mix.
type slotKind string

const (
	slotRepeat slotKind = "repeat"
	slotLimit  slotKind = "limit"
	slotChild  slotKind = "child"
	slotNovel  slotKind = "novel"
)

// slot is one position of a serve pass. Repeat and limit slots carry the
// same query every pass; child and novel slots are refilled with fresh
// queries each pass.
type slot struct {
	Kind     slotKind
	Index    int // index within its kind
	Streamed bool
}

// serveRequest is one query of one serve pass.
type serveRequest struct {
	SQL      string
	Kind     slotKind
	Streamed bool
}

// novelTable is one template for never-seen queries: a filter on a
// numeric attribute whose literal is made unique per query, so every
// filter prompt is new to the prompt cache and no stored relation can
// answer it (a non-key predicate is never evaluated locally).
type novelTable struct {
	table, key, attr, base string
}

var novelTables = []novelTable{
	{"city", "name", "population", "1000000"},
	{"country", "name", "population", "50000000"},
	{"mayor", "name", "age", "50"},
	{"airport", "iata", "passengers", "50"},
	{"singer", "name", "birth_year", "1980"},
	{"stadium", "name", "capacity", "60000"},
	{"mountain", "name", "height", "5000"},
}

// novelSQL renders the never-seen query of novel slot n in pass p. Pass
// -1 is the untimed warm-up that loads every table's key-scan prompts.
func novelSQL(p, n int) string {
	t := novelTables[n%len(novelTables)]
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s > %s.%03d%03d", t.key, t.table, t.attr, t.base, p+1, n)
}

// limitSpec is one LIMIT consumer of a stored producer.
type limitSpec struct {
	producer      string
	limit, offset int
}

// serveMix is the seeded traffic of the serve workload.
type serveMix struct {
	warm    []string // LIMIT-free statements the untimed earlier generation stores
	repeats []string
	limits  []string
	slots   []slot

	limitOf  map[string]limitSpec // each LIMIT consumer's producer and bounds
	parentOf map[string]string    // each Pair child's parent
	filtered map[string]bool      // warm statements and parents whose WHERE filters rows

	sess     *core.Session // planning-only session for fingerprints
	rnd      *rand.Rand
	pairs    *difftest.Generator
	seen     map[string]bool // fingerprints of every statement the run issues
	children map[string]bool // fingerprints of the children issued so far
	passes   [][]serveRequest
	// parents[p] are pass p's Pair parents, sent untimed before the pass.
	parents [][]string
}

// newServeMix derives the serve traffic from the seed: the warm
// statements, the repeats, the slot template and the fresh-query
// generators. sess resolves tables for fingerprinting; it executes
// nothing.
func newServeMix(seed int64, sess *core.Session) (*serveMix, error) {
	m := &serveMix{sess: sess, rnd: rand.New(rand.NewSource(seed)), pairs: difftest.New(seed + 7919),
		limitOf: map[string]limitSpec{}, parentOf: map[string]string{}, filtered: map[string]bool{},
		seen: map[string]bool{}, children: map[string]bool{}}
	producer := map[string]bool{}
	for _, it := range baseList(seed) {
		if hasLimit(it.SQL) || len(m.warm) == serveWarm {
			continue
		}
		info, err := inspect(sess, it.SQL)
		if err != nil {
			return nil, fmt.Errorf("planning %q: %w", it.SQL, err)
		}
		if m.seen[info.Fingerprint] {
			continue
		}
		m.seen[info.Fingerprint] = true
		m.warm = append(m.warm, it.SQL)
		m.filtered[it.SQL] = info.Filtered
		producer[it.SQL] = info.Producer
	}
	for _, k := range []struct {
		kind slotKind
		n    int
	}{{slotRepeat, serveRepeats}, {slotLimit, serveLimits}, {slotChild, serveChildren}, {slotNovel, serveNovel}} {
		for i := 0; i < k.n; i++ {
			m.slots = append(m.slots, slot{Kind: k.kind, Index: i})
		}
	}
	m.rnd.Shuffle(len(m.slots), func(i, j int) { m.slots[i], m.slots[j] = m.slots[j], m.slots[i] })
	for i := range m.slots {
		m.slots[i].Streamed = i%serveStreamed == 0
	}
	// LIMIT consumers read producers among the repeats, which every pass
	// keeps hot in the server's LRU result cache.
	var producers []string
	for _, i := range m.rnd.Perm(len(m.warm))[:serveRepeats] {
		sql := m.warm[i]
		m.repeats = append(m.repeats, sql)
		if producer[sql] {
			producers = append(producers, sql)
		}
	}
	if len(producers) == 0 {
		return nil, errors.New("no producer among the repeats")
	}
	for i := 0; i < serveLimits; i++ {
		spec := limitSpec{producer: producers[i%len(producers)], limit: 1 + m.rnd.Intn(8)}
		sql := fmt.Sprintf("%s LIMIT %d", spec.producer, spec.limit)
		if m.rnd.Intn(3) == 0 {
			spec.offset = m.rnd.Intn(4)
			sql += fmt.Sprintf(" OFFSET %d", spec.offset)
		}
		m.limits = append(m.limits, sql)
		m.limitOf[sql] = spec
	}
	return m, nil
}

// planDependent reports whether a request's answer rests on a statement
// whose WHERE filters rows: a stored filtered statement, a LIMIT over a
// filtered producer or a child of a filtered parent. Under cost-based
// planning such an answer depends on the plan the server chose, which
// its learned statistics steer, so it can differ from the reference
// (see CHANGES.md).
func (m *serveMix) planDependent(r serveRequest) bool {
	switch r.Kind {
	case slotRepeat:
		return m.filtered[r.SQL]
	case slotLimit:
		return m.filtered[m.limitOf[r.SQL].producer]
	case slotChild:
		return m.filtered[m.parentOf[r.SQL]]
	}
	return false
}

// pass returns pass p's requests and its parents, generating fresh
// children and novel queries the first time a pass is asked for.
func (m *serveMix) pass(p int) ([]serveRequest, []string, error) {
	for len(m.passes) <= p {
		if err := m.extend(len(m.passes)); err != nil {
			return nil, nil, err
		}
	}
	return m.passes[p], m.parents[p], nil
}

// extend generates pass p. A Pair is kept only when its child has a
// fingerprint the run has never issued (parents included), so the
// server cannot answer it by exact match and must subsume it from the
// parent.
func (m *serveMix) extend(p int) error {
	var parents, children []string
	for len(children) < serveChildren {
		pair := m.pairs.Pair()
		child, err := inspect(m.sess, pair.Child)
		if err != nil {
			return fmt.Errorf("planning %q: %w", pair.Child, err)
		}
		parent, err := inspect(m.sess, pair.Parent)
		if err != nil {
			return fmt.Errorf("planning %q: %w", pair.Parent, err)
		}
		if m.seen[child.Fingerprint] || child.Fingerprint == parent.Fingerprint || m.children[parent.Fingerprint] {
			continue
		}
		m.seen[child.Fingerprint] = true
		m.seen[parent.Fingerprint] = true
		m.children[child.Fingerprint] = true
		m.parentOf[pair.Child] = pair.Parent
		m.filtered[pair.Parent] = parent.Filtered
		parents = append(parents, pair.Parent)
		children = append(children, pair.Child)
	}
	reqs := make([]serveRequest, len(m.slots))
	for i, s := range m.slots {
		var sql string
		switch s.Kind {
		case slotRepeat:
			sql = m.repeats[s.Index]
		case slotLimit:
			sql = m.limits[s.Index]
		case slotChild:
			sql = children[s.Index]
		case slotNovel:
			sql = novelSQL(p, s.Index)
		}
		reqs[i] = serveRequest{SQL: sql, Kind: s.Kind, Streamed: s.Streamed}
	}
	m.passes = append(m.passes, reqs)
	m.parents = append(m.parents, parents)
	return nil
}
