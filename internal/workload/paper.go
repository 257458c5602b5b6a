// Package workload provides the paper's running example database
// (Figure 1) and deterministic synthetic generators for the benchmark
// harness: schemas, data, view sets, and query workloads.
package workload

import (
	"fmt"

	"authdb/internal/core"
	"authdb/internal/cview"
	"authdb/internal/parser"
	"authdb/internal/relation"
)

// Fixture bundles a database scheme, its relation instances, and an
// authorization store. Each relation changes through its Versioned, as
// the engine's do.
type Fixture struct {
	Schema *relation.DBSchema
	Rels   map[string]*relation.Versioned
	Store  *core.Store
}

// Source adapts the fixture's relations for the algebra evaluators: it
// returns a relation's current revision.
func (f *Fixture) Source(name string) (*relation.Relation, error) {
	r, ok := f.Rels[name]
	if !ok {
		return nil, fmt.Errorf("unknown relation %s", name)
	}
	return r.Head(), nil
}

// MustExec applies a script of statements to the fixture (DDL, DML, view
// definitions and permits); it panics on any error, for fixtures only.
func (f *Fixture) MustExec(script string) {
	stmts, err := parser.ParseProgramPos(script)
	if err != nil {
		panic(fmt.Errorf("workload script: %w", err))
	}
	for _, sp := range stmts {
		if err := f.apply(sp.Stmt); err != nil {
			panic(fmt.Errorf("workload script line %d (%T): %w", sp.Line, sp.Stmt, err))
		}
	}
}

func (f *Fixture) apply(s parser.Stmt) error {
	switch s := s.(type) {
	case parser.CreateRelation:
		rs, err := relation.NewSchema(s.Name, s.Attrs, s.Key...)
		if err != nil {
			return err
		}
		if err := f.Schema.Add(rs); err != nil {
			return err
		}
		f.Rels[s.Name] = relation.NewVersioned(rs.Attrs)
		return nil
	case parser.Insert:
		r, ok := f.Rels[s.Rel]
		if !ok {
			return fmt.Errorf("unknown relation %s", s.Rel)
		}
		_, err := r.Insert(relation.Tuple(s.Values))
		return err
	case parser.ViewStmt:
		return f.Store.DefineView(s.Def)
	case parser.Permit:
		return f.Store.Permit(s.View, s.User)
	default:
		return fmt.Errorf("unsupported fixture statement %T", s)
	}
}

// NewFixture returns an empty fixture.
func NewFixture() *Fixture {
	sch := relation.NewDBSchema()
	return &Fixture{
		Schema: sch,
		Rels:   make(map[string]*relation.Versioned),
		Store:  core.NewStore(sch),
	}
}

// PaperScript is the paper's running example verbatim: the database of
// Figure 1 (EMPLOYEE, PROJECT, ASSIGNMENT), the four views SAE, ELP, EST,
// PSA, and the permits for Brown and Klein.
const PaperScript = `
relation EMPLOYEE (NAME, TITLE, SALARY) key (NAME);
relation PROJECT (NUMBER, SPONSOR, BUDGET) key (NUMBER);
relation ASSIGNMENT (E_NAME, P_NO) key (E_NAME, P_NO);

insert into EMPLOYEE values (Jones, manager, 26000);
insert into EMPLOYEE values (Smith, technician, 22000);
insert into EMPLOYEE values (Brown, engineer, 32000);

insert into PROJECT values (bq-45, Acme, 300000);
insert into PROJECT values (sv-72, Apex, 450000);
insert into PROJECT values (vg-13, Summit, 150000);

insert into ASSIGNMENT values (Jones, bq-45);
insert into ASSIGNMENT values (Smith, bq-45);
insert into ASSIGNMENT values (Jones, sv-72);
insert into ASSIGNMENT values (Brown, sv-72);
insert into ASSIGNMENT values (Smith, vg-13);
insert into ASSIGNMENT values (Brown, vg-13);

view SAE (EMPLOYEE.NAME, EMPLOYEE.SALARY);

view ELP (EMPLOYEE.NAME, EMPLOYEE.TITLE, PROJECT.NUMBER, PROJECT.BUDGET)
  where EMPLOYEE.NAME = ASSIGNMENT.E_NAME
  and PROJECT.NUMBER = ASSIGNMENT.P_NO
  and PROJECT.BUDGET >= 250000;

view EST (EMPLOYEE:1.NAME, EMPLOYEE:2.NAME, EMPLOYEE:1.TITLE)
  where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE;

view PSA (PROJECT.NUMBER, PROJECT.SPONSOR, PROJECT.BUDGET)
  where PROJECT.SPONSOR = Acme;

permit SAE to Brown;
permit PSA to Brown;
permit EST to Brown;
permit ELP to Klein;
permit EST to Klein;
`

// Paper builds the Figure 1 fixture.
func Paper() *Fixture {
	f := NewFixture()
	f.MustExec(PaperScript)
	return f
}

// ViewDefsFor returns the definitions of the views permitted to user.
func (f *Fixture) ViewDefsFor(user string) []*cview.Def {
	var out []*cview.Def
	for _, name := range f.Store.ViewsFor(user) {
		if def := f.Store.ViewDef(name); def != nil {
			out = append(out, def)
		}
	}
	return out
}

// MustQuery parses a retrieve statement into its definition.
func MustQuery(stmt string) *cview.Def {
	s, err := parser.Parse(stmt)
	if err != nil {
		panic(err)
	}
	r, ok := s.(parser.Retrieve)
	if !ok {
		panic(fmt.Sprintf("not a retrieve statement: %T", s))
	}
	return r.Def
}

// Example1Query is Brown's §5 Example 1 request: the numbers and sponsors
// of large projects.
const Example1Query = `
retrieve (PROJECT.NUMBER, PROJECT.SPONSOR)
  where PROJECT.BUDGET >= 250000`

// Example2Query is Klein's §5 Example 2 request: the names and salaries of
// engineers assigned to very large projects.
const Example2Query = `
retrieve (EMPLOYEE.NAME, EMPLOYEE.SALARY)
  where EMPLOYEE.TITLE = engineer
  and EMPLOYEE.NAME = ASSIGNMENT.E_NAME
  and ASSIGNMENT.P_NO = PROJECT.NUMBER
  and PROJECT.BUDGET > 300000`

// Example3Query is Brown's §5 Example 3 request: the names and salaries of
// employees with the same title.
const Example3Query = `
retrieve (EMPLOYEE:1.NAME, EMPLOYEE:1.SALARY, EMPLOYEE:2.NAME, EMPLOYEE:2.SALARY)
  where EMPLOYEE:1.TITLE = EMPLOYEE:2.TITLE`
