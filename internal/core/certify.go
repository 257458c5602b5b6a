package core

import (
	"authdb/internal/algebra"
	"authdb/internal/cview"
	"authdb/internal/relation"
)

// Certification is the outcome of the §1 generalization of the model:
// "Given a query and set of database views that possess a particular
// property, what views of the answer possess this property?" The paper's
// companion instance (Motro's "Integrity = Validity + Completeness")
// tags views as having guaranteed integrity; the certifier then
// accompanies every answer with statements defining the portions whose
// integrity is guaranteed — "resembling a certification of quality" —
// without masking anything.
type Certification struct {
	// Answer is the full answer; certification never withholds data.
	Answer *relation.Relation
	// Statements describes the certified portions, one per meta-tuple of
	// the quality's meta-answer that reveals a requested column; empty
	// when the whole answer (Full) or none of it carries the property.
	Statements []PermitStatement
	// Full reports that the entire answer carries the property.
	Full bool
	// Stats counts the certified portion: the relation masking would
	// deliver.
	Stats MaskStats
}

// Certify runs the meta-side pipeline for a pseudo-principal naming a
// quality rather than a user (tag views with Store.Permit(view, quality))
// and returns the full answer together with inferred statements about the
// portions possessing the property. It is the paper's integrity
// instance of the machinery: same meta-relations, same extended
// operators, no masking. It consults neither the cache nor the closure,
// which hold no answer.
func (a *Authorizer) Certify(quality string, def *cview.Def) (*Certification, error) {
	a = a.over(a.Store.Of(quality))
	an, err := cview.Analyze(def, a.Store.Schema())
	if err != nil {
		return nil, err
	}
	mp, err := a.MaskPlanFor(quality, an.PSJ)
	if err != nil {
		return nil, err
	}
	// Certification delivers the full answer, so the mask may never prune
	// rows from it — uncertified rows are annotated, not withheld.
	ans, err := algebra.EvalPSJ(mp.actualPSJ(an.PSJ, false), a.Source, a.Guard, algebra.ExecOptions{UseIndexes: true}, nil)
	if err != nil {
		return nil, err
	}
	c := &Certification{Full: mp.FullyAuthorized}
	_, c.Stats = mp.Mask.Apply(ans)
	if mp.WidePSJ != nil {
		ans = ans.Project(mp.Mask.Out)
	}
	c.Answer = ans
	for _, p := range mp.Permits {
		p.Verb = "certified"
		c.Statements = append(c.Statements, p)
	}
	return c, nil
}
