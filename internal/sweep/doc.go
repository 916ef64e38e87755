// Package sweep runs grids of simulation scenarios concurrently and
// aggregates their matching results into one deterministic report — the
// scaffolding for every multi-scenario study (robustness ramps, seed
// fan-outs, workload and topology sweeps) on top of the single-scenario
// pipeline.
//
// A grid is a cross product of Axis values over a base sim.Config,
// built with Expand or one of the canned constructors (CorruptionRamp —
// experiment E14 —, SeedFanOut, MixGrid). Run executes the scenarios over
// a bounded worker pool; each scenario runs through sim.Run on a fresh
// metastore laid out by its own Config. Per scenario the engine runs the
// three matching passes (analysis.CompareMethodsParallel) against the
// frozen store and evaluates analysis.ShapeChecks.
//
// Determinism invariant: a Report is a pure function of the scenario
// list. Outcomes land at their scenario's index regardless of worker
// count or completion order, outcomes hold value data only (never store
// pointers), and renderings iterate slices, never maps — so Markdown and
// JSON output are byte-identical for -workers 1 and -workers N. cmd/sweep
// is the command-line front end; experiments.RobustnessSweep wires the
// canned ramp in as E14.
package sweep
