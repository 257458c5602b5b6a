package wire

import (
	"math/rand"
	"time"
)

// Redial is the reconnect policy the client and the replication
// follower share. A pending leader hint is the next dial target, once;
// otherwise the target is the current slot of a rotation through Addrs,
// advanced on failure. Between attempts the caller waits Delay: full
// jitter around a backoff d that starts at Min and doubles per attempt up
// to Max, until Reset. Next needs at least one address; a Redial is not
// safe for concurrent use.
type Redial struct {
	Addrs    []string
	Min, Max time.Duration
	idx      int
	hint     string
	d        time.Duration
}

// Hint makes addr (when not empty) the next dial target.
func (r *Redial) Hint(addr string) {
	if addr != "" {
		r.hint = addr
	}
}

// Next returns the dial target: the pending hint, which it consumes, or
// the rotation's current address.
func (r *Redial) Next() string {
	if a := r.hint; a != "" {
		r.hint = ""
		return a
	}
	return r.Addrs[r.idx%len(r.Addrs)]
}

// Rotate moves the rotation to the next address after a failure.
func (r *Redial) Rotate() { r.idx++ }

// Delay returns the wait before the next attempt, uniform in [d/2, 3d/2)
// so that peers which failed together do not redial in lockstep, and
// doubles d up to Max.
func (r *Redial) Delay() time.Duration {
	d := r.d
	if d <= 0 {
		d = r.Min
	}
	r.d = min(2*d, r.Max)
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Reset returns the backoff to Min, after a connection that made progress.
func (r *Redial) Reset() { r.d = 0 }
