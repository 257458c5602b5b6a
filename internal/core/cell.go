// Package core implements the paper's primary contribution: the
// representation of conjunctive view definitions in meta-relations, the
// extension of the algebraic operators (product, selection, projection) to
// meta-relations (§4.1, Definitions 1–3), the refinements of §4.2 (product
// padding, four-case selection with clearing, self-join inference), and
// the authorization process of §5 that turns the meta-answer A' into a
// mask over the answer A plus inferred permit statements.
package core

import (
	"strings"

	"authdb/internal/interval"
	"authdb/internal/value"
)

// VarID identifies a view variable (the paper's x1, x2, …) within one
// Instance. Zero means "no variable".
type VarID int

// Cell is one component of a meta-tuple. The paper's cell forms map to:
//
//	⊔ (blank)      Var == 0 and Cons is full
//	constant c     Var == 0 and Cons is the point interval [c,c]
//	variable x     Var != 0; Cons carries the variable's COMPARISON
//	               constraints folded into interval form
//	suffix *       Star
//
// Cells sharing a VarID within a meta-tuple denote equal values (the join
// conditions of the view).
type Cell struct {
	Star bool
	Var  VarID
	Cons interval.Interval
}

// Blank returns the unconstrained, unprojected cell ⊔.
func Blank() Cell { return Cell{Cons: interval.Full()} }

// Const returns the constant cell c (starred or not).
func Const(v value.Value, star bool) Cell {
	return Cell{Star: star, Cons: interval.Point(v)}
}

// IsBlank reports whether the cell is ⊔, possibly starred: no variable and
// no constraint. Per Definition 3 these are exactly the cells whose
// attribute a projection may remove.
func (c Cell) IsBlank() bool { return c.Var == 0 && c.Cons.IsFull() }

// render prints the cell in the figure notation; name resolves variable
// display names ("x1"). A variable pinned to a point renders as the
// constant.
func (c Cell) render(name func(VarID) string) string {
	var b strings.Builder
	switch {
	case c.Var != 0:
		b.WriteString(name(c.Var))
	default:
		if v, ok := c.Cons.IsPoint(); ok {
			b.WriteString(v.String())
		} else if !c.Cons.IsFull() {
			b.WriteString(c.Cons.String())
		}
	}
	if c.Star {
		b.WriteString("*")
	}
	return b.String()
}
