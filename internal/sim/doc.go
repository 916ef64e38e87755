// Package sim assembles the full simulated stack — grid topology, network,
// Rucio, PanDA, workload generation, background traffic, metadata
// corruption, and the metastore — and runs it over a study window. It is
// the single entry point used by the command-line tools, the examples, the
// sweep engine, and the benchmark harness.
//
// Entry points: Run executes one Config to its horizon and returns the
// populated, frozen metastore plus run statistics; RunWithObserver is Run
// with periodic mid-run checkpoints over the live store. Each run builds
// its own fresh store, laid out by Config.Shards and Config.SegmentRows.
// QuickConfig and PaperConfig are the two canned scenarios.
//
// Determinism is the package's load-bearing invariant: a Result is a pure
// function of its Config, seed included. The root RNG is split per
// subsystem (corruption, net, rucio, panda, workload, background), so
// adding draws in one subsystem never perturbs another, and Run freezes
// the store before returning so every downstream analysis starts from a
// read-only, concurrently-queryable snapshot.
package sim
