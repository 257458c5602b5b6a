package client

import (
	"testing"
	"time"
)

// TestRedial walks the reconnect wait through a table of steps: each
// wait is drawn from the whole of [d/2, 3d/2), d doubles up to max, and
// reset returns it to min.
func TestRedial(t *testing.T) {
	const ms = time.Millisecond
	b := &redial{min: 10 * ms, max: 40 * ms}
	for i, s := range []struct {
		reset bool          // reset instead of drawing
		d     time.Duration // the delay the wait must draw around
	}{
		{d: 10 * ms},
		{d: 20 * ms},
		{d: 40 * ms},
		{d: 40 * ms},
		{reset: true},
		{d: 10 * ms},
	} {
		if s.reset {
			b.reset()
			continue
		}
		lo, hi := s.d/2, s.d*3/2
		seenLo, seenHi := hi, lo
		saved := b.d
		for range 1000 {
			b.d = saved
			got := b.next()
			if got < lo || got >= hi {
				t.Fatalf("step %d: wait %v, outside [%v, %v)", i, got, lo, hi)
			}
			seenLo, seenHi = min(seenLo, got), max(seenHi, got)
		}
		if seenLo > lo+s.d/10 || seenHi < hi-s.d/10 {
			t.Fatalf("step %d: 1000 draws spanned [%v, %v] of [%v, %v)", i, seenLo, seenHi, lo, hi)
		}
	}
}
