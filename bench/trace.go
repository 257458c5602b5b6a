package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"authdb"
	"authdb/internal/algebra"
	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/engine"
	"authdb/internal/guard"
	registry "authdb/internal/metrics"
	"authdb/internal/parser"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/internal/wire"
	"authdb/pkg/client"
)

// The traced pass. Per-layer numbers come from two single-goroutine
// passes over one fixed operation sequence, so every count repeats
// exactly for a seed:
//
//   - the wire pass sends the sequence through one client connection
//     per principal and reads the engine's own counters around it;
//   - the staged pass replays each request in process, stage by stage
//     in the order Session.Dispatch runs them, timing a span around
//     every call into a layer's public functions.
//
// Before them a short window of the untraced load, unchanged, supplies
// the client.* diagnostics. Spans are recorded here, from the
// benchmark's side of each call; tracing inside the program is a later
// change.

type opKind int

const (
	opRead opKind = iota
	opConnect
	opInsert
	opDelete
	opRevoke
	opPermit
	opCheckpoint
)

// op is one step of a traced sequence.
type op struct {
	kind   opKind
	user   string
	class  int // reads: index into the workload's classes
	stmt   string
	want   expect
	reauth bool // the first read of its class after a revoke+permit pair
	// revisit marks an acl_cold read of a principal the sequence has
	// visited before. It runs, so the caches see it, but of its timings
	// only a closure hit's lookup is kept: the layers report the cold
	// path, and a mixture of hits and misses has no stable median.
	revisit bool
	// mirror applies a write to the staged pass's copy of the relations.
	mirror func(map[string]*relation.Versioned)
}

// span is one timed interval. Parent is the span that caused it (0 for
// a request's root) and Request the operation's index in the sequence.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name})
	id := len(t.spans)
	t.spans[id-1].StartNS = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// byClass collects one layer's values (microseconds, mostly) by read
// class; its value is the mean over classes of the class median, the
// same reduction the end-to-end latencies use.
type byClass map[int][]float64

func (l byClass) add(class int, v float64) { l[class] = append(l[class], v) }

func (l byClass) value() float64 {
	if len(l) == 0 {
		return 0
	}
	sum := 0.0
	for _, vs := range l {
		sum += median(vs)
	}
	return sum / float64(len(l))
}

// traced runs the traced pass for w and reports every per-layer metric.
func traced(w workload, p params) (*result, error) {
	p.setupReps = nil // one set-up: the traced pass reports no setup_s
	in, _, err := setUp(w, p)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name(), Trace: true}
	fail := func(err error) (*result, error) {
		in.close()
		return nil, fmt.Errorf("%s: traced pass: %w", w.name(), err)
	}

	// The load exactly as the untraced run applies it.
	window := min(p.window, 5*time.Second)
	obs := &observed{}
	w.drive(in, window, obs)
	classes, primary := w.classes()
	sum := summarize(obs.reads, classes, primary, window)

	n := p.traceOps[w.name()]
	wp, err := wirePass(in, w.sequence(n))
	if err != nil {
		return fail(err)
	}
	sp, err := stagedPass(in, w.sequence(n), p.decompose)
	if err != nil {
		return fail(err)
	}
	if err := sp.tr.write(filepath.Join(p.outDir, "trace-"+w.name()+".json")); err != nil {
		return fail(err)
	}
	rtt, err := wp.roundTrips()
	if err != nil {
		return fail(err)
	}
	if err := w.finish(in, obs); err != nil {
		return fail(err)
	}
	if err := in.close(); err != nil {
		return nil, err
	}

	m := metrics{}
	for name, l := range sp.layers {
		m.set(name, l.value(), "us")
	}
	exec := sp.layers["engine.exec_us"].value()
	m.set("algebra.rows_examined_per_row", median(sp.rowsExamined), "ratio")
	m.set("relation.index_build_us", median(sp.indexBuild), "us")
	m.set("engine.insert_us", median(sp.inserts), "us")
	m.set("wire.resp_bytes", sp.respBytes.value(), "B")
	m.set("net.rtt_us", rtt, "us")
	m.set("client.exec_p50_us", wp.exec.value(), "us")
	m.set("server.overhead_us", wp.exec.value()-(exec+m["authdb.convert_us"].Value+m["authdb.render_us"].Value+
		m["wire.encode_us"].Value+m["wire.decode_us"].Value+rtt), "us")
	m.set("client.connect_us", median(wp.connects), "us")
	wp.counters(m)
	clientDiagnostics(m, "client.", obs, sum)
	m.set("wire_pass.write_p50_us", median(wp.writes), "us")
	m.set("wire_pass.reauth_p50_us", median(wp.reauths), "us")
	m.set("staged.decomposed_requests", float64(sp.decomposed), "count")
	m.set("trace.spans", float64(len(sp.tr.spans)), "count")
	res.fill(m)

	res.Attempted = obs.attempted + wp.attempted + sp.attempted
	res.Failed = obs.failed + wp.failed + sp.failed
	// Staging that leaves more than a fifth of the in-process statement
	// unexplained has missed a layer; the numbers would mislead. (A couple of
	// microseconds on a 10us statement are timer noise, not a layer.)
	if un := res.Metrics["engine.unattributed_us"].Value; un > 0.2*exec && un > 2 {
		res.Failed++
		fmt.Fprintf(os.Stderr, "%s: engine.unattributed_us %.1f is more than 20%% of engine.exec_us %.1f\n", w.name(), un, exec)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// counters are the program's own counts the wire pass reports as
// deltas over the sequence.
type counters struct {
	closureHits, closureMisses, closureRefreshes, closureInvalid uint64
	cacheHits, cacheMisses                                       uint64
	delivered, withheld, walAppends                              int64
	pageWrites, pageHits, pageMisses, evictions                  uint64
	mallocs, allocBytes, gcPauseNS                               uint64
}

func readCounters(in *instance) counters {
	e := in.db.Engine()
	cs, reg, ps := e.MaskClosureStats(), in.db.Metrics(), e.PageStats()
	c := counters{
		closureHits: cs.Hits, closureMisses: cs.Misses, closureRefreshes: cs.Refreshes, closureInvalid: cs.Invalidations(),
		delivered:  reg.Counter("authdb_cells_delivered_total").Value(),
		withheld:   reg.Counter("authdb_cells_withheld_total").Value(),
		walAppends: reg.Counter("authdb_wal_appends_total").Value(),
		pageWrites: ps.PageWrites, pageHits: ps.Hits, pageMisses: ps.Misses, evictions: ps.Evictions,
	}
	c.cacheHits, c.cacheMisses, _ = e.MaskCacheStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.mallocs, c.allocBytes, c.gcPauseNS = mem.Mallocs, mem.TotalAlloc, mem.PauseTotalNs
	return c
}

func (a counters) since(b counters) counters {
	return counters{
		closureHits: a.closureHits - b.closureHits, closureMisses: a.closureMisses - b.closureMisses,
		closureRefreshes: a.closureRefreshes - b.closureRefreshes, closureInvalid: a.closureInvalid - b.closureInvalid,
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		delivered: a.delivered - b.delivered, withheld: a.withheld - b.withheld, walAppends: a.walAppends - b.walAppends,
		pageWrites: a.pageWrites - b.pageWrites, pageHits: a.pageHits - b.pageHits,
		pageMisses: a.pageMisses - b.pageMisses, evictions: a.evictions - b.evictions,
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes, gcPauseNS: a.gcPauseNS - b.gcPauseNS,
	}
}

// wireStats is what the wire pass saw.
type wireStats struct {
	exec      byClass // client.Exec through one connection, reads
	reqBytes  map[int]int
	respBytes map[int]int
	connects  []float64
	writes    []float64 // closed loop here: send to ack
	reauths   []float64
	ckptMS    []float64
	ckptDirty []float64
	walBytes  []float64
	nReads    int
	nWrites   int
	attempted int64
	failed    int64
	delta     counters
}

// walSize is the total size of the directory's write-ahead logs.
func walSize(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var n int64
	for _, name := range names {
		if info, err := os.Stat(name); err == nil {
			n += info.Size()
		}
	}
	return n
}

// wirePass sends ops through pkg/client from one goroutine and takes
// the engine's counters before and after. The caches start empty, so
// the hit and miss pattern is a function of the sequence alone.
func wirePass(in *instance, ops []op) (*wireStats, error) {
	s := &wireStats{exec: byClass{}, reqBytes: map[int]int{}, respBytes: map[int]int{}}
	in.resetCaches()
	conns := map[string]*conn{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	connFor := func(o op) (*conn, error) {
		if c, ok := conns[o.user]; ok {
			return c, nil
		}
		opt := client.WithUser(o.user)
		if o.kind != opRead {
			opt = client.WithAdmin(o.user, "")
		}
		t0 := time.Now()
		c, err := dial(in.addr, opt)
		if err == nil {
			conns[o.user] = c
			s.connects = append(s.connects, micros(time.Since(t0)))
		}
		return c, err
	}
	ctx := context.Background()
	before := readCounters(in)
	for _, o := range ops {
		s.attempted++
		switch o.kind {
		case opConnect:
			for u, c := range conns {
				c.Close()
				delete(conns, u)
			}
			if _, err := connFor(op{kind: opRead, user: o.user}); err != nil {
				return nil, err
			}
		case opCheckpoint:
			t0 := time.Now()
			if err := in.db.Checkpoint(); err != nil {
				return nil, err
			}
			s.ckptMS = append(s.ckptMS, micros(time.Since(t0))/1000)
			s.ckptDirty = append(s.ckptDirty, float64(in.db.Engine().PageStats().DirtyFlush))
		case opRead:
			c, err := connFor(o)
			if err != nil {
				return nil, err
			}
			got := c.read
			t0 := time.Now()
			res, err := c.Exec(ctx, o.stmt)
			lat := time.Since(t0)
			if err != nil || expectOf(res.Rows) != o.want {
				s.failed++
				continue
			}
			s.nReads++
			if o.revisit {
				continue
			}
			s.exec.add(o.class, micros(lat))
			s.respBytes[o.class] = int(c.read - got)
			s.reqBytes[o.class] = requestBytes(o.stmt)
			if o.reauth {
				s.reauths = append(s.reauths, micros(lat))
			}
		default: // a write
			c, err := connFor(o)
			if err != nil {
				return nil, err
			}
			wal := walSize(in.dir)
			t0 := time.Now()
			if _, err := c.Exec(ctx, o.stmt); err != nil {
				s.failed++
				continue
			}
			s.writes = append(s.writes, micros(time.Since(t0)))
			s.nWrites++
			if grown := walSize(in.dir) - wal; grown >= 0 {
				s.walBytes = append(s.walBytes, float64(grown))
			}
		}
	}
	s.delta = readCounters(in).since(before)
	return s, nil
}

func requestBytes(stmt string) int {
	raw, _ := json.Marshal(wire.Request{ID: 1, Stmt: stmt})
	return len(raw)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// counters reports the wire pass's counter deltas.
func (s *wireStats) counters(m metrics) {
	d := s.delta
	lookups := float64(d.closureHits + d.closureMisses)
	reads, writes := float64(s.nReads), float64(s.nWrites)
	m.set("core.closure_hit_ratio", ratio(float64(d.closureHits), lookups), "ratio")
	m.set("core.closure_refresh_ratio", ratio(float64(d.closureRefreshes), lookups), "ratio")
	m.set("core.closure_invalidations", float64(d.closureInvalid), "count")
	m.set("core.maskcache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)), "ratio")
	m.set("core.cells_delivered_per_read", ratio(float64(d.delivered), reads), "count")
	m.set("core.cells_withheld_per_read", ratio(float64(d.withheld), reads), "count")
	m.set("wal.appends_per_write", ratio(float64(d.walAppends), writes), "count")
	m.set("wal.bytes_per_write", mean(s.walBytes), "B")
	m.set("storage.checkpoint_ms", median(s.ckptMS), "ms")
	m.set("storage.dirty_pages_per_checkpoint", mean(s.ckptDirty), "count")
	m.set("storage.page_writes_per_write", ratio(float64(d.pageWrites), writes), "count")
	m.set("storage.page_cache_hit_ratio", ratio(float64(d.pageHits), float64(d.pageHits+d.pageMisses)), "ratio")
	m.set("storage.evictions", float64(d.evictions), "count")
	m.set("runtime.allocs_per_read", ratio(float64(d.mallocs), reads), "count")
	m.set("runtime.alloc_bytes_per_read", ratio(float64(d.allocBytes), reads), "B")
	m.set("runtime.gc_pause_ms", float64(d.gcPauseNS)/1e6, "ms")
}

// roundTrips measures the loopback cost of frames the size of each
// class's request and reply through a plain TCP echo goroutine: the
// network's share of a read, with none of the program in it.
func (s *wireStats) roundTrips() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	const trips = 200
	classes := make([]int, 0, len(s.respBytes))
	for c := range s.respBytes {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	echoed := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer nc.Close()
		br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
		for _, c := range classes {
			reply := make([]byte, s.respBytes[c]-4) // the counted bytes include the length word
			for i := 0; i < trips; i++ {
				if _, err := wire.ReadFrame(br); err != nil {
					echoed <- err
					return
				}
				if err := wire.WriteFrame(bw, reply); err == nil {
					err = bw.Flush()
				}
				if err != nil {
					echoed <- err
					return
				}
			}
		}
		echoed <- nil
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	rtt := byClass{}
	for _, c := range classes {
		request := make([]byte, s.reqBytes[c])
		for i := 0; i < trips; i++ {
			t0 := time.Now()
			if err := wire.WriteFrame(bw, request); err != nil {
				return 0, err
			}
			if err := bw.Flush(); err != nil {
				return 0, err
			}
			if _, err := wire.ReadFrame(br); err != nil {
				return 0, err
			}
			rtt.add(c, micros(time.Since(t0)))
		}
	}
	return rtt.value(), <-echoed
}

// stagedStats is what the staged pass measured.
type stagedStats struct {
	tr           *tracer
	layers       map[string]byClass
	respBytes    byClass
	rowsExamined []float64
	indexBuild   []float64
	inserts      []float64
	decomposed   int
	attempted    int64
	failed       int64
}

// add records one duration (in microseconds) of a layer metric.
func (st *stagedStats) add(layer string, class int, us float64) {
	if st.layers[layer] == nil {
		st.layers[layer] = byClass{}
	}
	st.layers[layer].add(class, us)
}

// stager replays a sequence in process, in two loops over the same
// operations:
//
//   - stageLoop runs every statement on the engine itself — the whole
//     in-process statement (engine.exec_us), the writes, the
//     checkpoints — and, straight after each read, replays it stage by
//     stage against its own copy of the engine's read path: the
//     relations mirrored as relation.Versioned (so revisions,
//     append-extension and per-revision indexes behave as the engine's
//     do), the store the engine's read saw, and a closure and mask cache
//     of the engine's capacities. Fed the same sequence from empty
//     caches, its hits and misses are the engine's; run back to back,
//     the two see the same machine.
//   - replyLoop measures what the server adds around the statement:
//     conversion to the public result, rendering, and the reply's trip
//     through the wire codec. It is a loop of its own because decoding
//     a 220 KB reply empties the processor's caches, and a 15us closure
//     hit timed straight after it measures that instead.
type stager struct {
	in      *instance
	st      *stagedStats
	opt     core.Options
	limits  guard.Limits
	decomp  int // how many closure misses may still be decomposed
	rels    map[string]*relation.Versioned
	cache   *core.MaskCache
	closure *core.Closure
	reg     *registry.Registry
	eng     map[string]*engine.Session
}

func stagedPass(in *instance, ops []op, decompose int) (*stagedStats, error) {
	st := &stagedStats{tr: &tracer{t0: time.Now()}, layers: map[string]byClass{}, respBytes: byClass{}}
	e := in.db.Engine()
	s := &stager{
		in: in, st: st, opt: e.Options(), limits: guard.DefaultLimits(), decomp: decompose,
		rels:  map[string]*relation.Versioned{},
		cache: core.NewMaskCache(0), closure: core.NewClosure(0),
		reg: registry.NewRegistry(),
	}
	for _, name := range e.Schema().Names() {
		r, err := e.Relation(name)
		if err != nil {
			return nil, err
		}
		s.rels[name] = relation.VersionedOf(r)
	}
	in.resetCaches()
	ctx := context.Background()
	for _, loop := range []func(context.Context, int, op) error{s.stageLoop, s.replyLoop} {
		// Each loop starts with the collector idle: a cycle still marking
		// the previous pass's garbage would tax whichever loop runs next.
		runtime.GC()
		s.eng = map[string]*engine.Session{}
		for i, o := range ops {
			if err := loop(ctx, i, o); err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	return st, nil
}

// session returns the engine session of the operation's principal,
// with the limits the server gives its connections.
func (s *stager) session(o op) *engine.Session {
	es, ok := s.eng[o.user]
	if !ok {
		es = s.in.db.Engine().NewSession(o.user, o.kind != opRead)
		es.SetLimits(s.limits)
		s.eng[o.user] = es
	}
	return es
}

var writeSpans = map[opKind]string{opInsert: "engine.insert", opDelete: "engine.delete",
	opRevoke: "engine.revoke", opPermit: "engine.permit"}

func (s *stager) source(name string) (*relation.Relation, error) {
	v, ok := s.rels[name]
	if !ok {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	return v.Head(), nil
}

// indexBuild times the first range lookup on PROJECT's fresh revision
// against a repeat: the lazy per-revision index rebuild a read pays
// after every write. It probes a second handle on the same tuples, so
// the staged reads still build their own index as the engine's do.
func (s *stager) indexBuild(request int) {
	head := s.rels["PROJECT"].Head().Suffix(0)
	budget := head.AttrIndex("BUDGET")
	lo := &relation.RangeEnd{V: value.Int(250000)}
	id := s.st.tr.begin("relation.index_build", 0, request)
	head.LookupRange(budget, lo, nil)
	first := s.st.tr.end(id)
	id = s.st.tr.begin("relation.index_lookup", 0, request)
	head.LookupRange(budget, lo, nil)
	s.st.indexBuild = append(s.st.indexBuild, micros(first-s.st.tr.end(id)))
}

func (s *stager) stageLoop(ctx context.Context, i int, o op) error {
	tr, st := s.st.tr, s.st
	st.attempted++
	switch o.kind {
	case opConnect:
		s.eng = map[string]*engine.Session{}
		return nil
	case opCheckpoint:
		id := tr.begin("storage.checkpoint", 0, i)
		err := s.in.db.Checkpoint()
		tr.end(id)
		return err
	case opInsert, opDelete, opRevoke, opPermit:
		id := tr.begin(writeSpans[o.kind], 0, i)
		_, err := s.session(o).ExecContext(ctx, o.stmt)
		d := tr.end(id)
		if err != nil {
			return err
		}
		if o.mirror != nil {
			o.mirror(s.rels)
		}
		if o.kind == opInsert {
			st.inserts = append(st.inserts, micros(d))
			s.indexBuild(i)
		}
		return nil
	}

	// The whole in-process statement, on the engine itself.
	store := s.in.db.Engine().Store()
	es := s.session(o)
	root := tr.begin("request", 0, i)
	id := tr.begin("engine.exec", root, i)
	res, err := es.ExecContext(ctx, o.stmt)
	exec := tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	if res.Relation.Len() != o.want.rows {
		st.failed++
	}
	if !o.revisit {
		st.add("engine.exec_us", o.class, micros(exec))
	}

	// The same statement stage by stage.
	root = tr.begin("request.staged", 0, i)
	id = tr.begin("parser.parse", root, i)
	stmt, err := parser.Parse(o.stmt)
	parse := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("guard.open", root, i)
	g := guard.New(ctx, s.limits)
	open := tr.end(id)
	id = tr.begin("cview.analyze", root, i)
	an, err := cview.Analyze(stmt.(parser.Retrieve).Def, store.Schema())
	analyze := tr.end(id)
	if err != nil {
		return err
	}
	a := core.NewAuthorizer(store, s.source, s.opt)
	a.Guard, a.Cache, a.Closure = g, s.cache, s.closure
	hits := s.closure.Stats().Hits
	id = tr.begin("core.retrieve_plan", root, i)
	d, err := a.RetrievePlan(o.user, an.PSJ)
	plan := tr.end(id)
	if err != nil {
		return err
	}
	hit := s.closure.Stats().Hits > hits
	id = tr.begin("guard.close", root, i)
	err = g.Result(d.Masked.Len())
	g.Close()
	open += tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("metrics.observe", root, i)
	s.reg.Counter("authdb_requests_total", "kind", "retrieve").Inc()
	s.reg.Histogram("authdb_exec_seconds", "kind", "retrieve").Observe((parse + analyze + plan).Seconds())
	s.reg.Counter("authdb_cells_delivered_total").Add(int64(d.Stats.RevealedCells))
	s.reg.Counter("authdb_cells_withheld_total").Add(int64(d.Stats.Cells - d.Stats.RevealedCells))
	observe := tr.end(id)
	staged := parse + open + analyze + plan + observe
	// The root's self time: what the spans themselves and the glue
	// between them cost per request.
	st.add("trace.overhead_us", o.class, micros(tr.end(root)-staged))
	if d.Masked.Len() != res.Relation.Len() {
		st.failed++ // the staging did not reproduce the engine's answer
	}

	if hit {
		st.add("core.closure_lookup_us", o.class, micros(plan))
	}
	if o.revisit {
		return nil
	}
	st.add("engine.unattributed_us", o.class, micros(exec-staged))
	st.add("parser.parse_us", o.class, micros(parse))
	st.add("guard.open_us", o.class, micros(open))
	st.add("cview.analyze_us", o.class, micros(analyze))
	st.add("metrics.observe_us", o.class, micros(observe))
	if !hit && st.decomposed < s.decomp {
		st.decomposed++
		return s.decompose(ctx, i, o, store, an.PSJ)
	}
	return nil
}

// decompose reruns a request that missed the closure with no cache and
// no closure, then its actual side and its mask application alone:
// the meta side is the cold plan minus the other two.
func (s *stager) decompose(ctx context.Context, i int, o op, store *core.Store, psj *algebra.PSJ) error {
	tr, st := s.st.tr, s.st
	g := guard.New(ctx, s.limits)
	defer g.Close()
	a := core.NewAuthorizer(store, s.source, s.opt)
	a.Guard = g
	root := tr.begin("request.cold", 0, i)
	defer tr.end(root)
	id := tr.begin("core.cold_plan", root, i)
	d, err := a.RetrievePlan(o.user, psj)
	cold := tr.end(id)
	if err != nil {
		return err
	}
	run := d.PSJ
	if d.PushdownApplied {
		run = &algebra.PSJ{Scans: run.Scans, Cols: run.Cols,
			Preds: append(append([]algebra.Atom(nil), run.Preds...), d.Pushdown...)}
	}
	var paths algebra.Trace
	id = tr.begin("algebra.eval", root, i)
	ans, err := algebra.EvalPSJ(run, s.source, g, algebra.ExecOptions{UseIndexes: s.opt.IndexedExec}, &paths)
	eval := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("core.mask_apply", root, i)
	d.Mask.Apply(ans)
	apply := tr.end(id)

	st.add("core.meta_us", o.class, micros(cold-eval-apply))
	st.add("algebra.eval_us", o.class, micros(eval))
	st.add("core.mask_apply_us", o.class, micros(apply))
	// Rows examined: a full scan reads the whole relation, an index
	// path only the rows it returns.
	examined := 0
	for _, sc := range paths.Scans {
		if sc.Path == algebra.PathFullScan {
			examined += sc.In
		} else {
			examined += sc.Out
		}
	}
	st.rowsExamined = append(st.rowsExamined, float64(examined)/float64(max(ans.Len(), 1)))
	return nil
}

// replyLoop times the server's share of a read. The statement is run
// once untimed so that both timed executions are closure hits:
// authdb's Exec minus the engine's is then the conversion alone.
func (s *stager) replyLoop(ctx context.Context, i int, o op) error {
	if o.kind != opRead || o.revisit {
		return nil
	}
	tr, st := s.st.tr, s.st
	es := s.session(o)
	as := s.in.db.Session(o.user).SetLimits(authdb.DefaultLimits())
	if _, err := es.ExecContext(ctx, o.stmt); err != nil {
		return err
	}
	root := tr.begin("request.reply", 0, i)
	defer tr.end(root)
	id := tr.begin("authdb.exec", root, i)
	res, err := as.ExecContext(ctx, o.stmt)
	outer := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("engine.exec.repeat", root, i)
	_, err = es.ExecContext(ctx, o.stmt)
	inner := tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("authdb.render", root, i)
	rendered := res.Render()
	render := tr.end(id)
	id = tr.begin("server.response", root, i)
	resp := responseOf(uint64(i+1), res, rendered)
	tr.end(id)
	var buf bytes.Buffer
	id = tr.begin("wire.encode", root, i)
	err = wire.WriteMsg(&buf, &resp)
	encode := tr.end(id)
	if err != nil {
		return err
	}
	size := buf.Len()
	var back wire.Response
	br := bufio.NewReader(&buf)
	id = tr.begin("wire.decode", root, i)
	err = wire.ReadMsg(br, &back)
	decode := tr.end(id)
	if err != nil {
		return err
	}
	st.add("authdb.convert_us", o.class, micros(outer-inner))
	st.add("authdb.render_us", o.class, micros(render))
	st.add("wire.encode_us", o.class, micros(encode))
	st.add("wire.decode_us", o.class, micros(decode))
	st.respBytes.add(o.class, float64(size))
	return nil
}

// responseOf builds the reply the server would send for res; it
// mirrors internal/server's unexported function of the same name.
func responseOf(id uint64, res *authdb.Result, rendered string) wire.Response {
	resp := wire.Response{
		ID: id, Text: res.Text, Rendered: rendered, Permits: res.Permits,
		FullyAuthorized: res.FullyAuthorized, Denied: res.Denied,
	}
	if res.Table != nil {
		resp.Table = &wire.Table{Columns: res.Table.Columns, Rows: tableStrings(res.Table)}
	}
	return resp
}
