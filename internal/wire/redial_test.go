package wire

import (
	"testing"
	"time"
)

// TestRedial walks the reconnect policy through a table of steps: a hint
// wins once, the rotation advances and wraps on failure, each wait is
// drawn from the whole of [d/2, 3d/2), d doubles up to Max, and Reset
// returns it to Min.
func TestRedial(t *testing.T) {
	const ms = time.Millisecond
	r := &Redial{Addrs: []string{"a", "b"}, Min: 10 * ms, Max: 40 * ms}
	for i, s := range []struct {
		op  string        // "next", "hint", "rotate", "delay" or "reset"
		arg string        // the hint, or the address Next must return
		d   time.Duration // the backoff Delay must draw around
	}{
		{op: "next", arg: "a"},
		{op: "next", arg: "a"},
		{op: "hint", arg: "h"},
		{op: "next", arg: "h"},
		{op: "next", arg: "a"},
		{op: "hint", arg: ""},
		{op: "next", arg: "a"},
		{op: "rotate"},
		{op: "next", arg: "b"},
		{op: "hint", arg: "h"},
		{op: "next", arg: "h"},
		{op: "next", arg: "b"},
		{op: "rotate"},
		{op: "next", arg: "a"},
		{op: "delay", d: 10 * ms},
		{op: "delay", d: 20 * ms},
		{op: "delay", d: 40 * ms},
		{op: "delay", d: 40 * ms},
		{op: "reset"},
		{op: "delay", d: 10 * ms},
	} {
		switch s.op {
		case "next":
			if got := r.Next(); got != s.arg {
				t.Fatalf("step %d: Next = %q, want %q", i, got, s.arg)
			}
		case "hint":
			r.Hint(s.arg)
		case "rotate":
			r.Rotate()
		case "reset":
			r.Reset()
		case "delay":
			lo, hi := s.d/2, s.d*3/2
			seenLo, seenHi := hi, lo
			saved := r.d
			for range 1000 {
				r.d = saved
				got := r.Delay()
				if got < lo || got >= hi {
					t.Fatalf("step %d: Delay = %v, outside [%v, %v)", i, got, lo, hi)
				}
				seenLo, seenHi = min(seenLo, got), max(seenHi, got)
			}
			if seenLo > lo+s.d/10 || seenHi < hi-s.d/10 {
				t.Fatalf("step %d: 1000 draws spanned [%v, %v] of [%v, %v)", i, seenLo, seenHi, lo, hi)
			}
		}
	}
}
