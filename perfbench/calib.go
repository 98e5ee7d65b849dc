package main

import "time"

// The host this benchmark runs on is shared, and its speed drifts by tens
// of percent over minutes, more than the program's time varies within a
// run. So a run reports its times at a fixed reference host speed. Before
// each set-up and each op, right after a forced garbage collection, the
// run times a calibration kernel; every time the run
// measured is then multiplied by one factor, calRefMS over the kernel's
// median time in the run. The kernel's median is in the run record as
// calibration_ms, so a raw wall time is the reported time × calibration_ms
// / calRefMS.

// calRefMS is the calibration kernel's time at the reference host speed.
// The kernel takes about 1 ms on the 2-vCPU VM (go1.24) the benchmark was
// defined on, so scaled times stay close to that host's wall times.
const calRefMS = 1.0

// calTable is the kernel's working set: 64 KiB, beyond L1 and well inside
// L2, like the simulator's decoded program and memory images.
var calTable = func() []uint32 {
	t := make([]uint32, 1<<14)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

var calSink uint32

// calibrate times a fixed amount of branchy, table-driven integer work,
// the instruction mix of an interpreter's dispatch loop, and returns the
// time in ms. It shares no code with the repository and does not
// allocate. Callers collect garbage first, so that no collection of the
// program's garbage runs beside it.
func calibrate() float64 {
	const steps = 100_000
	t0 := time.Now()
	x := uint32(1)
	for i := 0; i < steps; i++ {
		v := calTable[x&(1<<14-1)]
		switch v & 3 {
		case 0:
			x = x*1664525 + 1013904223
		case 1:
			x ^= v >> 3
		case 2:
			x += v | 1
		default:
			x = x<<7 | x>>25
		}
	}
	calSink += x
	return msSince(t0)
}
