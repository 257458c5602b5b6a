package client

import (
	"math/rand"
	"time"
)

// redial is the client's reconnect wait: full jitter around a delay d
// that starts at min and doubles per attempt up to max, until reset. A
// redial is not safe for concurrent use; the client's mutex guards it.
type redial struct {
	min, max time.Duration
	d        time.Duration
}

// next returns the wait before the next attempt, uniform in
// [d/2, 3d/2) so that clients which failed together do not redial in
// lockstep, and doubles d up to max.
func (b *redial) next() time.Duration {
	d := b.d
	if d <= 0 {
		d = b.min
	}
	b.d = min(2*d, b.max)
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// reset returns the backoff to min, after a connection that made
// progress.
func (b *redial) reset() { b.d = 0 }
