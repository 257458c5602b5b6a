package main

import (
	"context"
	"fmt"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/pkg/client"
)

// paperRead is one operation class of the paper-fixture workloads: a
// principal running one of the paper's §5 examples.
type paperRead struct {
	class string
	user  string
	stmt  string
}

var (
	brownEx1 = paperRead{"brown_ex1", "Brown", fixture.Example1}
	brownEx2 = paperRead{"brown_ex2", "Brown", fixture.Example2}
	kleinEx1 = paperRead{"klein_ex1", "Klein", fixture.Example1}
	kleinEx2 = paperRead{"klein_ex2", "Klein", fixture.Example2}
	brownEx3 = paperRead{"brown_ex3", "Brown", fixture.Example3}
)

// paperOracle answers the paper fixture with the mask cache and the
// closure off, so every reply it gives ran both pipelines from the
// definitions.
func paperOracle(sc fixture.PaperScale) (*authdb.DB, error) {
	opt := authdb.DefaultOptions()
	opt.MaskClosure = false
	db := authdb.Open(opt)
	db.Engine().SetMaskCacheEnabled(false)
	if _, err := db.Admin().ExecScript(fixture.PaperScript(sc)); err != nil {
		return nil, err
	}
	return db, nil
}

// verified is the oracle's reply to one class: the whole result the
// gate compares the server's reply with, and the row count and hash the
// timed replies are compared with.
type verified struct {
	result *authdb.Result
	expect
}

func askOracle(oracle *authdb.DB, r paperRead) (verified, error) {
	res, err := oracle.Session(r.user).Exec(r.stmt)
	if err != nil {
		return verified{}, fmt.Errorf("oracle %s: %w", r.class, err)
	}
	return verified{result: res, expect: expectOf(tableStrings(res.Table))}, nil
}

// tableStrings renders a delivered table's cells as the wire carries
// them; like the server, it leaves an empty table's rows nil.
func tableStrings(t *authdb.Table) [][]string {
	var rows [][]string
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.String()
		}
		rows = append(rows, cells)
	}
	return rows
}

// verifyServer sends r through the server and compares the whole reply
// with the oracle's: the rendering byte for byte, and every cell.
func verifyServer(addr string, r paperRead, want verified) error {
	c, err := client.Dial(addr, client.WithUser(r.user))
	if err != nil {
		return err
	}
	defer c.Close()
	got, err := c.Exec(context.Background(), r.stmt)
	if err != nil {
		return fmt.Errorf("server %s: %w", r.class, err)
	}
	if got.Rendered != want.result.Render() {
		return fmt.Errorf("%s: the server's rendered reply differs from the uncached oracle's", r.class)
	}
	rows := tableStrings(want.result.Table)
	if len(got.Rows) != len(rows) {
		return fmt.Errorf("%s: %d rows, oracle %d", r.class, len(got.Rows), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if got.Rows[i][j] != rows[i][j] {
				return fmt.Errorf("%s: row %d column %d is %q, oracle %q", r.class, i, j, got.Rows[i][j], rows[i][j])
			}
		}
	}
	return nil
}

// warm is warm_point and warm_wide: a closed loop with one request in
// flight over the in-memory paper fixture, every measured request a
// closure hit.
//
// warm_point: Brown's and Klein's connections take turns, each
// alternating Examples 1 and 2 (100-row and 1-row answers), so the mix
// is fixed and the per-request cost is fixed work: parse, analyze,
// closure lookup, frame, TCP. warm_wide: one connection runs Example 3
// as Brown (3003 rows, about 126 KB rendered), where the cost is
// proportional to the bytes converted, rendered, encoded and decoded.
type warm struct {
	id    string
	paper fixture.PaperScale
	reads []paperRead // the operation classes, in report order
	conns [][]int     // per connection, the classes it cycles through
	want  []verified  // per class
}

func newWarm(id string, paper fixture.PaperScale) (*warm, error) {
	w := &warm{id: id, paper: paper}
	if id == warmWide {
		w.reads = []paperRead{brownEx3}
		w.conns = [][]int{{0}}
	} else {
		w.reads = []paperRead{brownEx1, brownEx2, kleinEx1, kleinEx2}
		w.conns = [][]int{{0, 1}, {2, 3}}
	}
	oracle, err := paperOracle(paper)
	if err != nil {
		return nil, err
	}
	for _, r := range w.reads {
		v, err := askOracle(oracle, r)
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, v)
	}
	return w, nil
}

func (w *warm) name() string { return w.id }

func (w *warm) classes() ([]string, int) {
	out := make([]string, len(w.reads))
	for i, r := range w.reads {
		out[i] = r.class
	}
	return out, len(out)
}

func (w *warm) build(string) (*authdb.DB, string, error) {
	db := authdb.Open()
	if _, err := db.Admin().ExecScript(fixture.PaperScript(w.paper)); err != nil {
		return nil, "", err
	}
	return db, "", nil
}

func (w *warm) gate(in *instance) error {
	for i, r := range w.reads {
		if err := verifyServer(in.addr, r, w.want[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *warm) drive(in *instance, d time.Duration, obs *observed) {
	began := time.Now()
	conns := make([]*conn, len(w.conns))
	for i, mix := range w.conns {
		c, err := dial(in.addr, client.WithUser(w.reads[mix[0]].user))
		if err != nil {
			obs.attempted++
			obs.failed++
			return
		}
		defer c.Close()
		conns[i] = c
	}
	// One request in flight: the connections take turns, each stepping
	// through its own classes.
	for k := 0; k < len(w.reads) || time.Since(began) < d; k++ {
		i := k % len(conns)
		mix := w.conns[i]
		class := mix[k/len(conns)%len(mix)]
		timedRead(conns[i], class, w.reads[class].stmt, w.want[class].expect, obs)
	}
}

func (w *warm) finish(*instance, *observed) error { return nil }

// sequence cycles through the classes; every operation after the first
// of its class is a closure hit.
func (w *warm) sequence(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		class := i % len(w.reads)
		r := w.reads[class]
		ops[i] = op{kind: opRead, user: r.user, class: class, stmt: r.stmt, want: w.want[class].expect}
	}
	return ops
}
