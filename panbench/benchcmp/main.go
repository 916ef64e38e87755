// Command benchcmp compares two sets of panbench results. Each set is a
// directory of files (or a single file) holding the standard output of
// panbench runs; every run's block starts with its "panbench workload=..."
// line and ends with its JSON result line. For each workload and metric
// present on both sides it prints the median and quartiles of each side
// and the change of the median. It flags a change only when the change
// is worse (or better) than both the metric's bound in BENCHMARK.json and
// the old side's own quartile spread; per-layer metrics have no bound, so
// only the spread applies to them.
//
// A workload's runs are compared only when both sides ran the same seeds
// the same number of times: a seed is a scenario, so runs at different
// seeds would mix input variation into the spread. A workload whose seeds
// differ is reported and skipped, and the command then exits with status 1.
//
// Usage, from the panbench directory:
//
//	go run ./benchcmp [-bench ../BENCHMARK.json] OLD NEW
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// set holds one side's values: workload -> metric -> one value per run.
type set struct {
	values   map[string]map[string][]float64
	seeds    map[string][]string // workload -> the seed of each run
	machines map[string]bool
	runs     map[string]int
	failed   map[string]int64
}

func newSet() *set {
	return &set{values: map[string]map[string][]float64{}, seeds: map[string][]string{},
		machines: map[string]bool{}, runs: map[string]int{}, failed: map[string]int64{}}
}

// seedList names a workload's seeds in order, with repeats counted, as in
// "1x10" or "1 2 3".
func (s *set) seedList(workload string) string {
	seeds := append([]string(nil), s.seeds[workload]...)
	sort.Slice(seeds, func(i, j int) bool {
		if len(seeds[i]) != len(seeds[j]) {
			return len(seeds[i]) < len(seeds[j])
		}
		return seeds[i] < seeds[j]
	})
	var parts []string
	for i := 0; i < len(seeds); {
		j := i
		for j < len(seeds) && seeds[j] == seeds[i] {
			j++
		}
		if j-i > 1 {
			parts = append(parts, fmt.Sprintf("%sx%d", seeds[i], j-i))
		} else {
			parts = append(parts, seeds[i])
		}
		i = j
	}
	return strings.Join(parts, " ")
}

type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// load reads every file under path into one set.
func load(path string) (*set, error) {
	s := newSet()
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	for _, f := range files {
		if err := s.read(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *set) read(file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	workload, seed := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "panbench workload="):
			fields := strings.Fields(strings.TrimPrefix(line, "panbench workload="))
			workload, seed = fields[0], "?"
			for _, f := range fields[1:] {
				if v, ok := strings.CutPrefix(f, "seed="); ok {
					seed = v
				}
			}
		case strings.HasPrefix(line, "machine "):
			s.machines[strings.TrimPrefix(line, "machine ")] = true
		case strings.HasPrefix(line, "{") && workload != "":
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("%s: %v", file, err)
			}
			if s.values[workload] == nil {
				s.values[workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				s.values[workload][name] = append(s.values[workload][name], m.Value)
			}
			s.runs[workload]++
			s.seeds[workload] = append(s.seeds[workload], seed)
			s.failed[workload] += r.Failed
			workload = ""
		}
	}
	return sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func main() {
	benchPath := flag.String("bench", "../BENCHMARK.json", "BENCHMARK.json with the metrics' bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-bench BENCHMARK.json] OLD NEW")
		os.Exit(2)
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", *benchPath+":", err)
		os.Exit(1)
	}
	metrics := map[string]specMetric{}
	var order []string
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		metrics[m.Name] = m
		order = append(order, m.Name)
	}
	oldSet, err := load(flag.Arg(0))
	if err == nil {
		var newSet *set
		if newSet, err = load(flag.Arg(1)); err == nil {
			if !compare(oldSet, newSet, metrics, order) {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}

// compare prints the comparison of every workload both sides ran; it
// reports false when some workload was skipped because its seeds differ.
func compare(a, b *set, metrics map[string]specMetric, order []string) bool {
	for side, s := range map[string]*set{"old": a, "new": b} {
		for m := range s.machines {
			fmt.Printf("%s machine %s\n", side, m)
		}
	}
	var workloads []string
	for w := range a.values {
		if b.values[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	ok := true
	for _, w := range workloads {
		if a.seedList(w) != b.seedList(w) {
			fmt.Printf("\n%s: NOT COMPARED, the seeds differ: old %s, new %s\n", w, a.seedList(w), b.seedList(w))
			ok = false
			continue
		}
		fmt.Printf("\n%s: seeds %s; old %d runs (%d failed ops), new %d runs (%d failed ops)\n",
			w, a.seedList(w), a.runs[w], a.failed[w], b.runs[w], b.failed[w])
		fmt.Printf("  %-28s %-36s %-36s %9s  %s\n", "metric", "old q1 / median / q3", "new q1 / median / q3", "delta", "verdict")
		for _, name := range order {
			av, bv := a.values[w][name], b.values[w][name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			m := metrics[name]
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			delta := 0.0
			if a2 != 0 {
				delta = (b2 - a2) / math.Abs(a2)
			}
			spread := 0.0
			if a2 != 0 {
				spread = (a3 - a1) / math.Abs(a2)
			}
			verdict := "within noise"
			if limit := math.Max(m.Bound, spread); math.Abs(delta) > limit {
				worse := delta > 0
				if m.Better == "higher" {
					worse = !worse
				}
				verdict = fmt.Sprintf("BETTER (beyond %.1f%%)", 100*limit)
				if worse {
					verdict = fmt.Sprintf("WORSE (beyond %.1f%%)", 100*limit)
				}
			}
			fmt.Printf("  %-28s %-36s %-36s %+8.1f%%  %s\n", name,
				fmt.Sprintf("%.4g / %.4g / %.4g", a1, a2, a3), fmt.Sprintf("%.4g / %.4g / %.4g", b1, b2, b3),
				100*delta, verdict)
		}
	}
	return ok
}
