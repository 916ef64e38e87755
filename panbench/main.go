// Command panbench is panrucio's end-to-end benchmark. It runs one named
// workload in-process against the repository's public entry points —
// the sim engine and producers, the metastore, the core matcher, the
// analysis and report layers and the serve front end — checks the
// outputs, and prints every metric by name and unit, with the operations
// attempted and failed.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash panbench/run.sh --workload repro-8d|query-frozen|serve-live|all
//	                     [--seed N] [--seconds S] [--trace 0|1]
//
// The seed selects the simulated scenario (sim.PaperConfig(seed)) and
// every id the load generators draw, so the same seed gives the same
// inputs. --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 is the separate traced run that reports the per-layer metrics
// and writes its spans to .bench_out/. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md describes the workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// workloads maps each workload name to its runner, in the order --workload
// all runs them.
var workloads = []struct {
	name string
	run  func(runCfg) (*report, error)
}{
	{"repro-8d", runRepro},
	{"query-frozen", runQuery},
	{"serve-live", runLive},
}

// runCfg is what every workload runner receives.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer // records nothing unless trace is set
}

// metric is one named, unit-carrying value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is one workload run's outcome: the end-to-end metrics (tracing
// off) or the per-layer metrics (tracing on), the workload's own metric
// names for the human-readable block, and the failure accounting.
type report struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string // one line per failed op or check, capped
	notes     []string // human-readable context lines
	e2e       []metric // BENCHMARK.json end_to_end names (--trace 0)
	named     []metric // the workload's own end-to-end names, printed only
	layers    []metric // BENCHMARK.json per_layer names (--trace 1)
}

const maxFailureLines = 20

// fail records one failed op or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted op or check and records it as failed when ok
// is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) addE2E(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) addNamed(name string, v float64, unit string) {
	r.named = append(r.named, metric{name, v, unit})
}

func (r *report) addLayer(name string, v float64, unit string) {
	r.layers = append(r.layers, metric{name, v, unit})
}

// machine is the header every result carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

func machineHeader() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "none",
		Tree:       treeDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git commit is available.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(cfg runCfg, m machine) {
	fmt.Printf("panbench workload=%s seed=%d seconds=%g trace=%t\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	hdr, _ := json.Marshal(m)
	fmt.Printf("machine %s\n", hdr)
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	out := r.e2e
	if cfg.trace {
		out = r.layers
	} else {
		for _, x := range r.named {
			fmt.Printf("metric %-28s %14.4f %s\n", x.Name, x.Value, x.Unit)
		}
	}
	for _, x := range out {
		fmt.Printf("metric %-28s %14.4f %s\n", x.Name, x.Value, x.Unit)
	}
	fmt.Printf("ops attempted=%d failed=%d\n", r.attempted, r.failed)
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, x := range out {
		res.Metrics[x.Name] = jsonMetric{x.Value, x.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "panbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	fset := flag.NewFlagSet("panbench", flag.ContinueOnError)
	name := fset.String("workload", "all", "repro-8d, query-frozen, serve-live or all")
	seed := fset.Int64("seed", 1, "scenario and load seed (cmd/repro gates on 1)")
	seconds := fset.Float64("seconds", 20, "measured seconds per run")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fset.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds <= 0 || *seed <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "panbench: need --seconds > 0, --seed > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1}
	m := machineHeader()
	ran := false
	for _, w := range workloads {
		if *name != "all" && *name != w.name {
			continue
		}
		ran = true
		cfg.tr = newTracer(cfg.trace)
		rep, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "panbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.workload = w.name
		if cfg.trace {
			path, err := cfg.tr.write(".bench_out", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
			if err != nil {
				fmt.Fprintf(os.Stderr, "panbench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			rep.note("spans written to %s (%d dropped past the cap)", path, cfg.tr.dropped)
			for _, st := range cfg.tr.selfTimes() {
				rep.note("layer %-24s n=%-7d total %10.2f ms  self %10.2f ms", st.Name, st.Count, ms(st.Total), ms(st.Self))
			}
		}
		rep.print(cfg, m)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "panbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
}
