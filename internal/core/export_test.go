package core

import "authdb/internal/algebra"

// DecideTraced runs the step Retrieve ends with: execute psj's actual
// side for mp, with mp's pushdown atoms fused when fuse is set, and mask
// the answer. The actual side's access paths are recorded in tr.
func (a *Authorizer) DecideTraced(psj *algebra.PSJ, mp *MaskPlan, fuse bool, tr *algebra.Trace) (*Decision, error) {
	d, _, err := a.decide(psj, mp, 0, fuse, tr)
	return d, err
}
