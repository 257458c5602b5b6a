package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"authdb"
	"authdb/bench/fixture"
	"authdb/pkg/client"
)

// aclScale sizes acl_cold: the fixture and how many principals the
// gate checks cell by cell before timing.
type aclScale struct {
	cfg        fixture.ACLConfig
	gateSample int
}

func defaultACLScale() aclScale {
	return aclScale{cfg: fixture.DefaultACL(), gateSample: 16}
}

// zipfS is the skew of the principal draw: with 2000 principals the
// hottest takes about a sixth of the draws and the hottest 85 (a full
// closure's worth, at three entries each) about two thirds, so the
// closure and the mask cache see both a resident head and a tail that
// evicts it.
const zipfS = 1.1

// coldACL is acl_cold: one worker that draws a principal (Zipf over all
// of them), dials as that principal, runs its three statements once and
// closes. The working set (6000 principal-statement pairs) is far
// larger than the closure (256 entries) and the mask cache (1024), so
// most requests run the meta side, the actual side over 10^4-row
// relations, pushdown and mask application; connect cost and cache
// eviction matter here and nowhere else.
type coldACL struct {
	seed   int64
	scale  aclScale
	db     *fixture.ACL
	byRank []int    // Zipf rank -> user, a seeded shuffle so the hot principals are spread over organizations
	want   []expect // by user*ACLQueries + statement
	draw   *rand.Zipf

	visited map[int]bool // principals visited since the caches were last emptied
}

func newACLCold(seed int64, scale aclScale) *coldACL {
	w := &coldACL{seed: seed, scale: scale, db: fixture.GenACL(seed, scale.cfg)}
	rng := rand.New(rand.NewSource(seed))
	w.byRank = rng.Perm(scale.cfg.Users)
	w.draw = rand.NewZipf(rand.New(rand.NewSource(seed*7)), zipfS, 1, uint64(scale.cfg.Users-1))
	// The oracle's expectations are hashed up front: doing it inside the
	// workers would put the oracle's cost between the timed requests.
	for u := 0; u < scale.cfg.Users; u++ {
		for q := 0; q < fixture.ACLQueries; q++ {
			w.want = append(w.want, expectOf(w.db.Expect(u, q)))
		}
	}
	return w
}

func (w *coldACL) name() string { return aclCold }

// classes: a principal's first visit in a run misses both caches by
// construction, so the three statements' first-visit latencies are the
// cold path and nothing else; they are the primary classes. A revisit
// may hit the closure or have been evicted from it — a mixture whose
// median would flip between a 100us hit and a 3ms miss as the seed
// moves the hit share around one half — so revisits are reported
// beside them, ungated, and the hit share itself by the traced pass.
func (w *coldACL) classes() ([]string, int) {
	names := append([]string(nil), fixture.ACLQueryNames[:]...)
	for _, n := range fixture.ACLQueryNames {
		names = append(names, n+".revisit")
	}
	return names, fixture.ACLQueries
}

// firstVisit records that user u is being visited and reports whether
// it is the first time in this instance's life.
func (w *coldACL) firstVisit(u int) bool {
	first := !w.visited[u]
	w.visited[u] = true
	return first
}

func (w *coldACL) build(string) (*authdb.DB, string, error) {
	w.visited = make(map[int]bool)
	db := authdb.Open()
	if _, err := db.Admin().ExecScript(w.db.Script); err != nil {
		return nil, "", err
	}
	return db, "", nil
}

// gate compares a sample of principals' replies with the brute-force
// oracle cell by cell; the timed replies of every principal are then
// compared with the oracle by row count and hash. The caches are
// emptied afterwards so the sample is not resident when timing starts.
func (w *coldACL) gate(in *instance) error {
	for k := 0; k < w.scale.gateSample; k++ {
		u := w.byRank[k*len(w.byRank)/w.scale.gateSample]
		c, err := client.Dial(in.addr, client.WithUser(fixture.Principal(u)))
		if err != nil {
			return err
		}
		for q := 0; q < fixture.ACLQueries; q++ {
			got, err := c.Exec(context.Background(), w.db.Query(u, q))
			if err != nil {
				c.Close()
				return fmt.Errorf("user %d %s: %w", u, fixture.ACLQueryNames[q], err)
			}
			want := w.db.Expect(u, q)
			if len(got.Rows) != len(want) {
				c.Close()
				return fmt.Errorf("user %d %s: %d rows, oracle %d", u, fixture.ACLQueryNames[q], len(got.Rows), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if got.Rows[i][j] != want[i][j] {
						c.Close()
						return fmt.Errorf("user %d %s: row %d column %d is %q, oracle %q",
							u, fixture.ACLQueryNames[q], i, j, got.Rows[i][j], want[i][j])
					}
				}
			}
		}
		c.Close()
	}
	in.resetCaches()
	w.visited = make(map[int]bool)
	return nil
}

func (w *coldACL) drive(in *instance, d time.Duration, obs *observed) {
	began := time.Now()
	for visits := 0; visits == 0 || time.Since(began) < d; visits++ {
		u := w.byRank[w.draw.Uint64()]
		t0 := time.Now()
		c, err := dial(in.addr, client.WithUser(fixture.Principal(u)))
		obs.attempted++
		if err != nil {
			obs.failed++
			continue
		}
		obs.connects = append(obs.connects, time.Since(t0))
		class := 0
		if !w.firstVisit(u) {
			class = fixture.ACLQueries
		}
		for q := 0; q < fixture.ACLQueries; q++ {
			timedRead(c, class+q, w.db.Query(u, q), w.want[u*fixture.ACLQueries+q], obs)
		}
		c.Close()
	}
}

func (w *coldACL) finish(*instance, *observed) error { return nil }

// sequence is n/4 principal visits from a second Zipf stream: connect,
// then the three statements.
func (w *coldACL) sequence(n int) []op {
	draw := rand.NewZipf(rand.New(rand.NewSource(w.seed*7+2)), zipfS, 1, uint64(w.scale.cfg.Users-1))
	var ops []op
	seen := make(map[int]bool)
	for len(ops)+1+fixture.ACLQueries <= n {
		u := w.byRank[draw.Uint64()]
		ops = append(ops, op{kind: opConnect, user: fixture.Principal(u)})
		for q := 0; q < fixture.ACLQueries; q++ {
			ops = append(ops, op{kind: opRead, user: fixture.Principal(u), class: q, revisit: seen[u],
				stmt: w.db.Query(u, q), want: w.want[u*fixture.ACLQueries+q]})
		}
		seen[u] = true
	}
	return ops
}
