// Package sdsm reproduces Dwarkadas, Cox, and Zwaenepoel, "An Integrated
// Compile-Time/Run-Time Software Distributed Shared Memory System"
// (ASPLOS VII, 1996) as a complete Go library: a TreadMarks-style
// lazy-release-consistency DSM run-time with the paper's augmented
// interface (Validate, Validate_w_sync, Push), the regular-section-based
// compiler that drives it, message-passing baselines, the six evaluation
// applications, and a harness regenerating every table and figure of the
// paper on a simulated 8-node IBM SP/2.
//
// Start with README.md for a tour, DESIGN.md for the system inventory and
// the substitution rules (what is simulated and why), and EXPERIMENTS.md
// for the reproduced evaluation next to the paper's numbers.
// cmd/sdsm-experiments regenerates the evaluation and bench/ measures the
// program's own host time; the packages under internal/ implement the
// system; cmd/ and examples/ are the entry points.
package sdsm
