package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/internal/server"
	"authdb/pkg/client"
)

// workload is one traffic mix over one fixture. The four
// implementations live in paper.go, acl.go and churn.go.
type workload interface {
	name() string
	// build loads the fixture into a fresh database, durable workloads
	// into a new directory under outDir that they return. Timed as set-up.
	build(outDir string) (db *authdb.DB, dir string, err error)
	// gate checks, before timing and against an oracle that shares no
	// cache with the server, every distinct reply the load will see
	// (or, where the working set is too large for that, a sample) and
	// prepares what the timed replies are compared with.
	gate(in *instance) error
	// drive applies the load to in for d and adds what it saw to obs.
	// Every loop completes at least one round of its operations, so a
	// zero d is the first touch (each class once, cold) that ends
	// set-up; the warm-up and the measured window pass real durations.
	drive(in *instance, d time.Duration, obs *observed)
	// finish runs the checks that need the load stopped (durability,
	// disk amplification). Most workloads have none.
	finish(in *instance, obs *observed) error
	// sequence is the fixed operation list of the traced pass.
	sequence(n int) []op
	// classes lists the read operation classes, in report order. The
	// first `primary` of them feed the reported latency and byte means;
	// any after are listed in the diagnostics only.
	classes() (names []string, primary int)
}

// params sizes one run; the tests shrink everything.
type params struct {
	seed      int64
	window    time.Duration
	warmup    time.Duration
	setupReps map[string]int // set-ups per run; setup_s is their median
	traceOps  map[string]int // traced-pass sequence length per workload
	// decompose bounds how many closure misses per traced pass are also
	// run cold (no cache, no closure) to split the meta side from the
	// actual side: a cold plan on the paper fixture costs tens of
	// milliseconds, and churn_mixed misses after every write.
	decompose int
	// authEvery places churn_mixed's revoke+permit pair in the last two
	// of every authEvery write slots.
	authEvery int
	paper     fixture.PaperScale
	acl       aclScale
	outDir    string
}

func defaultParams(seed int64, seconds int, outDir string) params {
	return params{
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		warmup: time.Second,
		// Set-up time moves with the host by factors, so the cheap fixtures
		// are set up five times; acl_cold's takes seconds and gets three.
		setupReps: map[string]int{warmPoint: 9, warmWide: 9, aclCold: 3, churnMixed: 9},
		// The issue asks for 2000 operations everywhere; the wide and the
		// cold workload cost milliseconds per staged operation, so theirs
		// are shorter to keep a traced run inside the driver's limit.
		traceOps:  map[string]int{warmPoint: 2000, warmWide: 300, aclCold: 600, churnMixed: 2000},
		decompose: 64,
		authEvery: 100,
		paper:     fixture.DefaultPaper(),
		acl:       defaultACLScale(),
		outDir:    outDir,
	}
}

func newWorkload(name string, p params) (workload, error) {
	switch name {
	case warmPoint, warmWide:
		return newWarm(name, p.paper)
	case aclCold:
		return newACLCold(p.seed, p.acl), nil
	case churnMixed:
		return newChurn(p.seed, p.paper, p.authEvery)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// instance is a loaded database behind a started server.
type instance struct {
	db   *authdb.DB
	dir  string // durable directory, removed on close; "" in memory
	srv  *server.Server
	addr string
}

// start boots the in-process server on a loopback ephemeral port with
// the limits `authdb serve` applies by default.
func start(db *authdb.DB, dir string) (*instance, error) {
	srv := server.New(db, server.Config{Limits: authdb.DefaultLimits()})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &instance{db: db, dir: dir, srv: srv, addr: srv.Addr().String()}, nil
}

func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if cerr := in.db.Close(); err == nil {
		err = cerr
	}
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// resetCaches empties the closure and the mask cache, so a pass starts
// from a state that does not depend on what ran before it.
func (in *instance) resetCaches() {
	e := in.db.Engine()
	e.SetMaskClosureEnabled(false)
	e.SetMaskClosureEnabled(true)
	e.SetMaskCacheEnabled(false)
	e.SetMaskCacheEnabled(true)
}

// countConn counts the bytes a client connection receives and closes
// with a reset: acl_cold opens hundreds of connections a second, and
// an orderly close would park each local port in TIME_WAIT for a
// minute, exhausting the ephemeral range across back-to-back runs.
type countConn struct {
	net.Conn
	read *int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.read += int64(n)
	return n, err
}

func (c *countConn) Close() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // best effort; a refused option only costs a TIME_WAIT slot
	}
	return c.Conn.Close()
}

// conn is one client connection with its received-byte counter. A conn
// belongs to one goroutine: the counter is plain, and only the caller's
// goroutine reads from the socket.
type conn struct {
	*client.Client
	read int64
}

func dial(addr string, opt client.Option) (*conn, error) {
	c := &conn{}
	cl, err := client.Dial(addr, opt, client.WithDialer(func(ctx context.Context, a string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", a)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: nc, read: &c.read}, nil
	}))
	if err != nil {
		return nil, err
	}
	c.Client = cl
	return c, nil
}

// expect is what a verified reply looked like: timed replies are
// compared by row count and a hash of the table.
type expect struct {
	rows int
	hash uint64
}

var hashSeed = maphash.MakeSeed()

func expectOf(rows [][]string) expect {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, r := range rows {
		for _, c := range r {
			h.WriteString(c)
			h.WriteByte(0)
		}
		h.WriteByte(1)
	}
	return expect{rows: len(rows), hash: h.Sum64()}
}

// sample is one completed read.
type sample struct {
	lat   time.Duration
	class uint8
	bytes int32
}

// timeExec sends one read and measures it.
func timeExec(c *conn, class int, stmt string) (*client.Result, sample, error) {
	before := c.read
	t0 := time.Now()
	res, err := c.Exec(context.Background(), stmt)
	lat := time.Since(t0)
	return res, sample{lat: lat, class: uint8(class), bytes: int32(c.read - before)}, err
}

// observed is what one drive saw. Loops append to their own slices and
// merge under no lock: drive joins its goroutines before returning.
type observed struct {
	reads     []sample
	writes    []time.Duration // open loop: ack minus due instant
	connects  []time.Duration
	reauths   []time.Duration
	lateMax   time.Duration // how far the open-loop generator fell behind
	attempted int64
	failed    int64
	diskAmp   float64
	ref       calib // the reference operation, timed between the reads
}

// timedRead executes one read, checks the reply and records it. A
// failed or wrong reply is counted and contributes no latency.
func timedRead(c *conn, class int, stmt string, want expect, obs *observed) {
	res, s, err := timeExec(c, class, stmt)
	obs.attempted++
	if err != nil || expectOf(res.Rows) != want {
		obs.failed++
		return
	}
	obs.reads = append(obs.reads, s)
	obs.ref.tick()
}

func (o *observed) merge(p *observed) {
	o.reads = append(o.reads, p.reads...)
	o.writes = append(o.writes, p.writes...)
	o.connects = append(o.connects, p.connects...)
	o.reauths = append(o.reauths, p.reauths...)
	o.ref.us = append(o.ref.us, p.ref.us...)
	if p.lateMax > o.lateMax {
		o.lateMax = p.lateMax
	}
	o.attempted += p.attempted
	o.failed += p.failed
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile of an ascending slice, by the nearest-rank rule the old
// harnesses used.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// floor of an ascending slice: the 1st percentile, or the tenth value
// where the slice is short, so that at least ten samples lie at or
// below it. It is the latency of the requests nothing got in the way
// of.
func floor(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(min(9, len(sorted)-1), int(0.01*float64(len(sorted)-1)))]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func durationsMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	sort.Float64s(out)
	return out
}

// readSummary reduces a window's reads. Latency is reported per
// operation class and then averaged over the primary classes with
// equal weight: the classes differ by up to 100x (Example 2 returns one
// row, Example 3 three thousand), so a percentile over their mixture
// would sit on the boundary between two modes and move with the mix,
// not with the program. Bytes per read are averaged the same way, which
// makes them exact for a fixed set of statements whatever the mix.
//
// The gated latency is the floor, the 1st percentile: the requests
// nothing got in the way of. On this host the median of one request in
// flight on one processor still moves by a third with the neighbours,
// and in their busy minutes fewer than one request in twenty escapes
// them; the floor moves by a fifth, and the calibration (calib.go)
// takes most of that out. It shows any change to the work every
// request does, and does not show a change to the tail; median, tail
// and throughput are in the diagnostics for that.
type readSummary struct {
	p01, p25, p50, p99, qps, bytes float64
	samples                        int
	perClass                       []classSummary
}

type classSummary struct {
	name                      string
	n                         int
	p01, p25, p50, p99, bytes float64
}

func summarize(reads []sample, classes []string, primary int, window time.Duration) readSummary {
	lats := make([][]float64, len(classes))
	bytes := make([]float64, len(classes))
	for _, s := range reads {
		lats[s.class] = append(lats[s.class], micros(s.lat))
		bytes[s.class] += float64(s.bytes)
	}
	sum := readSummary{samples: len(reads), qps: float64(len(reads)) / window.Seconds()}
	for i, name := range classes {
		sort.Float64s(lats[i])
		cs := classSummary{name: name, n: len(lats[i])}
		if cs.n > 0 {
			cs.p01, cs.p25 = floor(lats[i]), percentile(lats[i], 0.25)
			cs.p50, cs.p99 = percentile(lats[i], 0.50), percentile(lats[i], 0.99)
			cs.bytes = bytes[i] / float64(cs.n)
		}
		sum.perClass = append(sum.perClass, cs)
		if i < primary {
			sum.p01 += cs.p01 / float64(primary)
			sum.p25 += cs.p25 / float64(primary)
			sum.p50 += cs.p50 / float64(primary)
			sum.p99 += cs.p99 / float64(primary)
			sum.bytes += cs.bytes / float64(primary)
		}
	}
	return sum
}

// statusMB reads one of the process's memory figures from
// /proc/self/status: "VmHWM" is the resident-set high-water mark,
// "VmRSS" the resident set now.
func statusMB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSettledMB is the resident set once the garbage is collected and
// the freed pages are returned: the fixture, the caches the load filled
// and the runtime, without whatever the collector had not got to yet.
// The high-water mark moves by a third between runs of the same binary
// (it is a maximum, set by when collections happened to start); this
// repeats.
func rssSettledMB() float64 {
	debug.FreeOSMemory()
	return statusMB("VmRSS")
}

// result is one run: what the driver reads, plus diagnostics only the
// report keeps.
type result struct {
	Workload    string  `json:"workload"`
	Trace       bool    `json:"trace"`
	Correct     bool    `json:"correct"`
	Attempted   int64   `json:"attempted"`
	Failed      int64   `json:"failed"`
	Metrics     metrics `json:"metrics"`
	Diagnostics metrics `json:"diagnostics,omitempty"`
}

// setupStats is what setting up cost, once per repetition.
type setupStats struct {
	user, cpu, wall []float64 // seconds: user-mode processor time, all processor time, elapsed
	ref             calib     // the reference operation, timed after each repetition
}

// setUp builds the fixture, starts the server and sends every
// operation class once (cold), as often as p asks and at least once;
// the last instance is kept, gated and warmed up. Neither of those is
// set-up time: the gate is the oracle's work, and a warm-up of fixed
// length would only dilute the metric.
//
// Set-up is timed in user-mode processor seconds, not elapsed ones.
// The same set-up takes 130ms or 250ms of wall clock a minute apart on
// this host, because a set-up is one long computation and every stall
// the host imposes lands in it; churn_mixed's also waits for the disk,
// whose fsyncs move by 10x, and the kernel's own processor time for
// its file operations moves from 3ms to 27ms with them. The program's
// own processor time moves by a fifth, and the reference operation,
// timed straight after each repetition, takes most of that out.
func setUp(w workload, p params) (*instance, *setupStats, error) {
	st := &setupStats{}
	for rep := 1; ; rep++ {
		// Start every repetition from a collected heap: how much of the
		// last one's garbage a collection in this one has to look at
		// otherwise moves its processor time by half.
		runtime.GC()
		u0, c0, t0 := userCPU(), cpuNow(), time.Now()
		db, dir, err := w.build(p.outDir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: building fixture: %w", w.name(), err)
		}
		in, err := start(db, dir)
		if err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
		touch := &observed{}
		w.drive(in, 0, touch)
		st.user = append(st.user, (userCPU() - u0).Seconds())
		st.cpu = append(st.cpu, (cpuNow() - c0).Seconds())
		st.wall = append(st.wall, time.Since(t0).Seconds())
		st.ref.burst(setupRefOps)
		if touch.failed > 0 {
			in.close()
			return nil, nil, fmt.Errorf("%s: %d of the first %d operations failed", w.name(), touch.failed, touch.attempted)
		}
		if rep < p.setupReps[w.name()] {
			if err := in.close(); err != nil {
				return nil, nil, err
			}
			continue
		}
		if err := w.gate(in); err != nil {
			in.close()
			return nil, nil, fmt.Errorf("%s: correctness gate: %w", w.name(), err)
		}
		w.drive(in, p.warmup, &observed{})
		return in, st, nil
	}
}

// measure is the untraced run: set up, drive for the window, reduce.
func measure(w workload, p params) (*result, error) {
	in, setup, err := setUp(w, p)
	if err != nil {
		return nil, err
	}
	obs := &observed{}
	w.drive(in, p.window, obs)
	ferr := w.finish(in, obs)
	settled := rssSettledMB() // with the instance still open
	if err := in.close(); err != nil && ferr == nil {
		ferr = err
	}
	if ferr != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), ferr)
	}

	classes, primary := w.classes()
	sum := summarize(obs.reads, classes, primary, p.window)
	res := &result{
		Workload: w.name(), Attempted: obs.attempted, Failed: obs.failed,
		Correct: obs.failed == 0 && obs.attempted > 0,
	}
	m := metrics{}
	m.set("setup_s", median(setup.user)*setup.ref.burstScale(), "s")
	m.set("read_p01_norm_us", sum.p01*obs.ref.floorScale(sensitivity[w.name()]), "us")
	m.set("resp_bytes_per_read", sum.bytes, "B")
	m.set("rss_settled_mb", settled, "MB")
	m.set("setup_user_s", median(setup.user), "s")
	m.set("setup_cpu_s", median(setup.cpu), "s")
	m.set("setup_wall_s", median(setup.wall), "s")
	m.set("setup_ref_p50_us", refBurstUS/setup.ref.burstScale(), "us")
	clientDiagnostics(m, "", obs, sum)
	res.fill(m)
	return res, nil
}

// fill splits what a run measured into the metrics BENCHMARK.json
// declares for its kind of run, in their declared units (a metric the
// workload has no value for, such as a write latency on a read-only
// one, reads 0), and the diagnostics.
func (r *result) fill(all metrics) {
	r.Metrics, r.Diagnostics = metrics{}, all
	declare := func(name, unit string) {
		r.Metrics.set(name, all[name].Value, unit)
		delete(all, name)
	}
	if r.Trace {
		for _, l := range perLayer {
			declare(l.name, l.unit)
		}
		return
	}
	for _, m := range endToEnd {
		declare(m.name, m.unit)
	}
}

// clientDiagnostics reports what the harness saw beyond the gated
// metrics: median, tail and throughput, sample counts, per-class
// latency, and churn_mixed's write-side numbers. The traced pass
// reports the same values under a "client." prefix.
func clientDiagnostics(m metrics, prefix string, obs *observed, sum readSummary) {
	m.set(prefix+"read_p01_us", sum.p01, "us")
	m.set(prefix+"read_p25_us", sum.p25, "us")
	m.set(prefix+"read_p50_us", sum.p50, "us")
	m.set(prefix+"read_p99_us", sum.p99, "us")
	m.set(prefix+"read_qps", sum.qps, "1/s")
	m.set(prefix+"read_samples", float64(sum.samples), "count")
	m.set(prefix+"fail_share", float64(obs.failed)/float64(max(obs.attempted, 1)), "ratio")
	m.set(prefix+"rss_peak_mb", statusMB("VmHWM"), "MB")
	m.set(prefix+"ref_p01_us", refFloorUS/obs.ref.floorScale(1), "us")
	m.set(prefix+"ref_samples", float64(len(obs.ref.us)), "count")
	for _, cs := range sum.perClass {
		m.set(prefix+"read_p01_us."+cs.name, cs.p01, "us")
		m.set(prefix+"read_p50_us."+cs.name, cs.p50, "us")
		m.set(prefix+"read_p99_us."+cs.name, cs.p99, "us")
		m.set(prefix+"read_samples."+cs.name, float64(cs.n), "count")
	}
	if len(obs.connects) > 0 {
		m.set(prefix+"connect_p50_us", percentile(durationsMicros(obs.connects), 0.5), "us")
	}
	if len(obs.writes) > 0 {
		ws := durationsMicros(obs.writes)
		m.set(prefix+"write_p50_us", percentile(ws, 0.50), "us")
		m.set(prefix+"write_p99_us", percentile(ws, 0.99), "us")
		m.set(prefix+"write_samples", float64(len(ws)), "count")
		m.set(prefix+"write_late_max_us", micros(obs.lateMax), "us")
		m.set(prefix+"reauth_p50_us", percentile(durationsMicros(obs.reauths), 0.5), "us")
		m.set(prefix+"reauth_samples", float64(len(obs.reauths)), "count")
		m.set(prefix+"disk_amp", obs.diskAmp, "ratio")
	}
}

// loops runs fn(0..n-1) concurrently, each with its own observed, and
// merges them into obs once all have returned.
func loops(n int, obs *observed, fn func(i int, o *observed)) {
	parts := make([]observed, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			fn(i, &parts[i])
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := range parts {
		obs.merge(&parts[i])
	}
}
