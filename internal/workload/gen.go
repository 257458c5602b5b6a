package workload

import (
	"fmt"
	"math/rand"

	"authdb/internal/cview"
	"authdb/internal/relation"
	"authdb/internal/value"
)

// GenConfig parameterises the synthetic generator. All generation is
// deterministic in Seed, so every experiment is reproducible.
type GenConfig struct {
	Seed int64
	// Relations is the number of base relations R0…Rn-1.
	Relations int
	// AttrsPerRel is the arity of each relation (≥ 3: key, foreign key,
	// payload…).
	AttrsPerRel int
	// RowsPerRel is the cardinality of each relation.
	RowsPerRel int
	// Views is how many views to define.
	Views int
	// ViewJoinWidth caps how many relations one view may join (≥ 1).
	ViewJoinWidth int
	// Users receive permits round-robin over the views.
	Users []string
	// RangeFraction in [0,1] sets how wide each view's range condition
	// is relative to the payload domain (1 = unconstrained).
	RangeFraction float64
}

// DefaultGen returns a moderate configuration for tests.
func DefaultGen() GenConfig {
	return GenConfig{
		Seed:          1,
		Relations:     3,
		AttrsPerRel:   4,
		RowsPerRel:    64,
		Views:         4,
		ViewJoinWidth: 2,
		Users:         []string{"u0", "u1"},
		RangeFraction: 0.5,
	}
}

// RelName returns the generated name of relation i.
func RelName(i int) string { return fmt.Sprintf("R%d", i) }

// AttrName returns the generated name of attribute j.
func AttrName(j int) string { return fmt.Sprintf("A%d", j) }

// Generate builds a synthetic fixture:
//
//   - relation Ri has attributes A0 (key, 0…rows-1), A1 (foreign key into
//     R(i+1 mod n)'s A0), and payloads A2… drawn from [0, rows);
//   - views join chains Ri ⋈ Ri+1 on A1 = A0, project the keys plus a
//     payload prefix, and constrain A2 to a range of the configured width;
//   - users are granted views round-robin.
func Generate(cfg GenConfig) *Fixture {
	if cfg.Relations < 1 || cfg.AttrsPerRel < 3 || cfg.RowsPerRel < 1 {
		panic("workload: degenerate GenConfig")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := NewFixture()
	attrs := make([]string, cfg.AttrsPerRel)
	for j := range attrs {
		attrs[j] = AttrName(j)
	}
	for i := 0; i < cfg.Relations; i++ {
		rs := relation.MustSchema(RelName(i), attrs, AttrName(0))
		if err := f.Schema.Add(rs); err != nil {
			panic(err)
		}
		r := relation.NewVersioned(rs.Attrs)
		for row := 0; row < cfg.RowsPerRel; row++ {
			t := make(relation.Tuple, cfg.AttrsPerRel)
			t[0] = value.Int(int64(row))
			t[1] = value.Int(int64(rng.Intn(cfg.RowsPerRel)))
			for j := 2; j < cfg.AttrsPerRel; j++ {
				t[j] = value.Int(int64(rng.Intn(cfg.RowsPerRel)))
			}
			if _, err := r.Insert(t); err != nil {
				panic(err)
			}
		}
		f.Rels[RelName(i)] = r
	}
	for v := 0; v < cfg.Views; v++ {
		def := genView(cfg, rng, v)
		if err := f.Store.DefineView(def); err != nil {
			panic(err)
		}
		if len(cfg.Users) > 0 {
			user := cfg.Users[v%len(cfg.Users)]
			if err := f.Store.Permit(def.Name, user); err != nil {
				panic(err)
			}
		}
	}
	return f
}

// genView builds view v: a chain of 1..ViewJoinWidth relations starting at
// a rotating anchor.
func genView(cfg GenConfig, rng *rand.Rand, v int) *cview.Def {
	width := 1
	if cfg.ViewJoinWidth > 1 {
		width = 1 + rng.Intn(cfg.ViewJoinWidth)
	}
	if width > cfg.Relations {
		width = cfg.Relations
	}
	start := v % cfg.Relations
	def := &cview.Def{Name: fmt.Sprintf("V%d", v)}
	for k := 0; k < width; k++ {
		rel := RelName((start + k) % cfg.Relations)
		// Project the key and one payload of every member relation.
		def.Cols = append(def.Cols,
			cview.ColRef{Alias: rel, Attr: AttrName(0)},
			cview.ColRef{Alias: rel, Attr: AttrName(2)},
		)
		if k > 0 {
			prev := RelName((start + k - 1) % cfg.Relations)
			def.Where = append(def.Where, cview.Cond{
				L:  cview.ColRef{Alias: prev, Attr: AttrName(1)},
				Op: value.EQ,
				R:  cview.ColTerm(rel, AttrName(0)),
			})
		}
	}
	// Range condition on the anchor's payload.
	if cfg.RangeFraction < 1 {
		span := int64(float64(cfg.RowsPerRel) * cfg.RangeFraction)
		if span < 1 {
			span = 1
		}
		lo := int64(rng.Intn(cfg.RowsPerRel))
		anchor := RelName(start)
		def.Where = append(def.Where,
			cview.Cond{
				L:  cview.ColRef{Alias: anchor, Attr: AttrName(2)},
				Op: value.GE,
				R:  cview.ConstTerm(value.Int(lo)),
			},
			cview.Cond{
				L:  cview.ColRef{Alias: anchor, Attr: AttrName(2)},
				Op: value.LE,
				R:  cview.ConstTerm(value.Int(lo + span)),
			},
		)
	}
	return def
}

// QueryConfig parameterises the query generator.
type QueryConfig struct {
	Seed int64
	// Count is how many queries to produce.
	Count int
	// JoinWidth caps the number of relations per query.
	JoinWidth int
	// ExtraAttrProb is the probability a query projects a payload column
	// beyond the view-style prefix — the requests that exceed column
	// permissions.
	ExtraAttrProb float64
	// RangeFraction sets the width of the query's range condition.
	RangeFraction float64
	// DropSelAttrProb is the probability the query does NOT project the
	// payload attribute its range condition selects on — the shape where
	// the §4.2 clearing refinement decides whether any mask survives the
	// final projection.
	DropSelAttrProb float64
	// InsideProb is the probability a query is derived from one of the
	// provided view definitions — a request inside (or slightly
	// exceeding, per ExtraAttrProb) a permission, the workload region
	// where the models actually differ.
	InsideProb float64
}

// GenQueries builds a deterministic query workload over a generated
// fixture's scheme. Queries mirror the view shapes (chains joined on
// A1 = A0 with a range on A2) with varying anchors, widths, projections,
// and ranges; with InsideProb > 0 a share of them is derived from the
// given view definitions (pass the target user's permitted views), so the
// workload mixes requests inside, around, and outside the permissions.
func GenQueries(cfg GenConfig, qc QueryConfig, views ...*cview.Def) []*cview.Def {
	rng := rand.New(rand.NewSource(qc.Seed))
	out := make([]*cview.Def, 0, qc.Count)
	for q := 0; q < qc.Count; q++ {
		if len(views) > 0 && rng.Float64() < qc.InsideProb {
			out = append(out, deriveQuery(rng, views[rng.Intn(len(views))], cfg, qc))
			continue
		}
		width := 1
		if qc.JoinWidth > 1 {
			width = 1 + rng.Intn(qc.JoinWidth)
		}
		if width > cfg.Relations {
			width = cfg.Relations
		}
		start := rng.Intn(cfg.Relations)
		dropSel := rng.Float64() < qc.DropSelAttrProb
		def := &cview.Def{}
		for k := 0; k < width; k++ {
			rel := RelName((start + k) % cfg.Relations)
			def.Cols = append(def.Cols, cview.ColRef{Alias: rel, Attr: AttrName(0)})
			if !(dropSel && k == 0) {
				def.Cols = append(def.Cols, cview.ColRef{Alias: rel, Attr: AttrName(2)})
			}
			if rng.Float64() < qc.ExtraAttrProb && cfg.AttrsPerRel > 3 {
				def.Cols = append(def.Cols, cview.ColRef{Alias: rel, Attr: AttrName(3)})
			}
			if k > 0 {
				prev := RelName((start + k - 1) % cfg.Relations)
				def.Where = append(def.Where, cview.Cond{
					L:  cview.ColRef{Alias: prev, Attr: AttrName(1)},
					Op: value.EQ,
					R:  cview.ColTerm(rel, AttrName(0)),
				})
			}
		}
		if qc.RangeFraction < 1 {
			span := int64(float64(cfg.RowsPerRel) * qc.RangeFraction)
			if span < 1 {
				span = 1
			}
			lo := int64(rng.Intn(cfg.RowsPerRel))
			anchor := RelName(start)
			def.Where = append(def.Where, cview.Cond{
				L:  cview.ColRef{Alias: anchor, Attr: AttrName(2)},
				Op: value.GE,
				R:  cview.ConstTerm(value.Int(lo)),
			}, cview.Cond{
				L:  cview.ColRef{Alias: anchor, Attr: AttrName(2)},
				Op: value.LE,
				R:  cview.ConstTerm(value.Int(lo + span)),
			})
		}
		out = append(out, def)
	}
	return out
}

// deriveQuery builds a request from a view definition: a column subset
// (possibly plus an unpermitted extra), the view's join conditions, and a
// narrowed version of its range conditions, so the request sits inside
// the permission except where ExtraAttrProb pushes it out.
func deriveQuery(rng *rand.Rand, v *cview.Def, cfg GenConfig, qc QueryConfig) *cview.Def {
	def := &cview.Def{}
	for _, c := range v.Cols {
		if len(def.Cols) > 0 && rng.Float64() < 0.3 {
			continue // drop some permitted columns
		}
		def.Cols = append(def.Cols, c)
	}
	if rng.Float64() < qc.ExtraAttrProb && cfg.AttrsPerRel > 3 {
		alias := v.Cols[rng.Intn(len(v.Cols))].Alias
		def.Cols = append(def.Cols, cview.ColRef{Alias: alias, Attr: AttrName(cfg.AttrsPerRel - 1)})
	}
	for _, c := range v.Where {
		nc := c
		if !c.R.IsCol && c.R.Const.Kind() == value.KindInt {
			// Narrow the range: raise lower bounds, lower upper bounds.
			delta := int64(rng.Intn(cfg.RowsPerRel/8 + 1))
			switch c.Op {
			case value.GE, value.GT:
				nc.R = cview.ConstTerm(value.Int(c.R.Const.AsInt() + delta))
			case value.LE, value.LT:
				nc.R = cview.ConstTerm(value.Int(c.R.Const.AsInt() - delta))
			}
		}
		def.Where = append(def.Where, nc)
	}
	return def
}
