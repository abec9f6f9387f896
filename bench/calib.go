package main

import "time"

// The sandbox this benchmark is sized on does not run at one speed: over
// minutes the same binary on the same input drifts by ±15 % in wall and in
// CPU time alike (neighbours on the host, not steal time), which is wider
// than any bound worth setting. So the end-to-end pass interleaves a fixed
// reference computation — owned by the benchmark, touching none of the
// repository's code — with the ops, and reports host times at reference
// speed: measured × calRefMS / median(calibration wall). A change to the
// program moves the measured times and not the calibration, so it shows in
// full; a slow quarter of an hour moves both, and cancels. Measured on the
// dev box over ten runs: the spread of ops_per_s falls from 14–22 % raw to
// 2–7 % calibrated.

// calRefMS is roughly the calibration's wall on the dev box on a calm day;
// it only fixes the scale of "reference speed".
const calRefMS = 20.0

// burstRounds is how many svc-mix rounds run between two calibrations: the
// calibration needs a quiet machine, so the submitters drain first.
const burstRounds = 4

// The stencil's arrays: 4 MiB together, past the per-core caches, and
// allocated once so that the calibration's speed does not depend on the
// state of the program's heap.
var calA, calB = make([]float64, 1<<18), make([]float64, 1<<18)

// calibrate runs the reference computation once and returns its wall in
// ms. Its two parts load what the workloads load most — floating-point
// streaming over arrays (interp, vm copies and compares) and goroutine
// hand-offs through channels (the sim engine's dispatch, the protocol
// goroutines) — and allocate nothing to speak of.
func calibrate() float64 {
	start := time.Now()
	calStencil()
	calHandoff()
	return float64(time.Since(start)) / 1e6
}

func calStencil() {
	a, b := calA, calB
	for i := range a {
		a[i] = float64(i)
	}
	for it := 0; it < 24; it++ {
		for i := 1; i < len(a)-1; i++ {
			b[i] = 0.25*a[i-1] + 0.5*a[i] + 0.25*a[i+1]
		}
		a, b = b, a
	}
}

func calHandoff() {
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < 30000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-done
}
