package main

import (
	"math"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Calibration. The benchmark machine is a small virtual machine on a
// shared host, and for a minute or so at a time its neighbours slow
// memory- and allocation-heavy code by a fifth to a half while a
// register-only loop does not move at all: the same request that has a
// floor of 62us in a quiet minute has one of 75us in a busy one, and
// ten runs that straddle both spread by more than any bound the
// driver accepts. Longer runs do not help, because the phases outlast
// them.
//
// So every timed quantity is reported relative to a reference
// operation of the benchmark's own, timed in the same seconds as the
// thing it scales: fixed work of the kind a request does (allocate
// rows of short strings, concatenate them, read at random across two
// thousand pages). What is reported is
//
//	measured x (the reference's time on a quiet host) / (its time now)
//
// which reads as microseconds or seconds on a quiet host. The
// reference lives here and calls nothing in the program, so a change to
// the program cannot move it; both sides of any comparison are scaled
// the same way. The unscaled values are in the diagnostics.

const (
	// What the reference takes on this machine when the host is quiet:
	// its floor between requests, and its median in a burst
	// (where it runs on warm caches).
	refFloorUS = 13.0
	refBurstUS = 11.0
	// Reference operations timed after each set-up, about 1ms of them.
	setupRefOps = 60
	// Calibrate at most this often beside timed requests: a thousand
	// samples a second cost the window about 2% of its time.
	refEvery = time.Millisecond
)

// refTable is only ever read, so its 2048 pages all map the kernel's
// zero page: reading across them costs address translation, as a
// request's pointer chasing does, and adds nothing to the resident set
// the benchmark also reports.
var refTable = make([]uint32, 1<<21)

// refOp is the reference operation. The caller keeps what it returns,
// so neither the rows nor the reads can be optimised away.
func refOp(seed uint64) ([][]string, uint64) {
	rows := make([][]string, 0, 8)
	for i := 0; i < 24; i++ {
		row := make([]string, 4)
		for j := range row {
			row[j] = strconv.Itoa(i*1000+j) + "-abcdefgh"
		}
		rows = append(rows, row)
	}
	var b []byte
	for _, r := range rows {
		for _, c := range r {
			b = append(b, c...)
			b = append(b, '|')
		}
	}
	sum := seed + uint64(len(b))
	idx := uint32(seed) | 1
	for i := 0; i < 1500; i++ {
		idx = idx*1664525 + 1013904223
		sum += uint64(refTable[idx>>11])
	}
	return rows, sum
}

// calib collects the reference's timings over one stretch of a run,
// by tick or by burst, not both. It belongs to one goroutine.
type calib struct {
	us   []float64
	last time.Time
	rows [][]string
	sum  uint64
}

// cpuNow is the processor time, user and system, the process has used
// so far, from the kernel's per-process clock. Unlike the wall clock it
// stands still while the process waits for the disk, and while the host
// runs someone else on this machine's processors, which it does for a
// sixth to two fifths of a bad minute.
func cpuNow() time.Duration {
	const processCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, processCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// userCPU is the user-mode processor time the process has used so far.
func userCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

// tick times the reference once by the wall clock, as the requests
// are, unless it did within refEvery. The timed loops call it after
// each request.
func (c *calib) tick() {
	now := time.Now()
	if now.Sub(c.last) < refEvery {
		return
	}
	c.rows, c.sum = refOp(c.sum)
	c.last = time.Now()
	c.us = append(c.us, micros(c.last.Sub(now)))
}

// burst times the reference n times back to back in processor time,
// as set-up is.
func (c *calib) burst(n int) {
	for i := 0; i < n; i++ {
		c0 := cpuNow()
		c.rows, c.sum = refOp(c.sum)
		c.us = append(c.us, micros(cpuNow()-c0))
	}
}

// sensitivity is how strongly a workload's latency floor follows the
// reference's: when the reference slows by x%, the floor slows by about
// sensitivity times x%. The closure hits of warm_point and churn_mixed
// move one for one with it. A cold acl_cold request walks relations
// and indexes of 85MB where the reference stays in the near caches,
// and the 220KB replies of warm_wide stream through memory: the
// neighbours hurt both more. Fitted as the log-log slope of floor
// against reference over 25 runs of each (1.69, 1.27, 0.92) and
// checked on three other sets of ten, where these values spread the
// scaled floor least.
var sensitivity = map[string]float64{warmPoint: 1, warmWide: 1.25, aclCold: 1.75, churnMixed: 1}

// floorScale turns a latency floor measured between these samples
// into its quiet-host equivalent for a workload of the given
// sensitivity, burstScale processor time spent just before these
// bursts. With no samples (a zero-length drive) they leave the value
// as it is.
func (c *calib) floorScale(exponent float64) float64 {
	if len(c.us) == 0 {
		return 1
	}
	s := append([]float64(nil), c.us...)
	sort.Float64s(s)
	return math.Pow(refFloorUS/floor(s), exponent)
}

func (c *calib) burstScale() float64 {
	if len(c.us) == 0 {
		return 1
	}
	return refBurstUS / median(c.us)
}
