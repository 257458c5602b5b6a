package wire

import (
	"errors"

	"authdb/internal/engine"
	"authdb/internal/guard"
	"authdb/internal/parser"
)

// Stable error codes carried in Error.Code. Clients branch on these,
// never on message text.
const (
	// CodeParse: the statement did not parse; Line/Col point at the spot.
	CodeParse = "PARSE"
	// CodeCanceled: the request's context was canceled or its deadline
	// (or the server's per-statement timeout) passed. Retryable.
	CodeCanceled = "CANCELED"
	// CodeBudget: the statement exceeded the connection's resource
	// limits; retrying the same statement fails the same way.
	CodeBudget = "BUDGET_EXCEEDED"
	// CodeNotAuthorized: the principal lacks the authority (admin-only
	// statement, or an update outside every permitted view).
	CodeNotAuthorized = "NOT_AUTHORIZED"
	// CodeInternal: a panic recovered at the session boundary.
	CodeInternal = "INTERNAL"
	// CodeShuttingDown: the server is draining; retry elsewhere/later.
	CodeShuttingDown = "SHUTTING_DOWN"
	// CodeProtocol: a malformed frame or handshake.
	CodeProtocol = "PROTOCOL"
	// CodeExec: any other execution failure (unknown relation or view,
	// arity mismatch, duplicate definitions, …). Deterministic.
	CodeExec = "EXEC"
)

// ErrorFor maps an execution error to its structured wire form.
func ErrorFor(err error) *Error {
	if err == nil {
		return nil
	}
	var se *parser.SyntaxError
	switch {
	case errors.As(err, &se):
		return &Error{Code: CodeParse, Message: err.Error(), Line: se.Line, Col: se.Col}
	case errors.Is(err, guard.ErrCanceled):
		return &Error{Code: CodeCanceled, Message: err.Error(), Retryable: true}
	case errors.Is(err, guard.ErrBudgetExceeded):
		return &Error{Code: CodeBudget, Message: err.Error()}
	case errors.Is(err, engine.ErrNotAuthorized):
		return &Error{Code: CodeNotAuthorized, Message: err.Error()}
	case errors.Is(err, engine.ErrInternal):
		return &Error{Code: CodeInternal, Message: err.Error()}
	default:
		return &Error{Code: CodeExec, Message: err.Error()}
	}
}
