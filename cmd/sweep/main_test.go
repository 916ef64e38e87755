package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.grid != "robustness" || o.format != "markdown" || o.seed != 1 ||
		o.scenarios != 0 || o.workers != 0 || o.matchWorkers != 1 || o.shards != 0 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-grid", "nope"},
		{"-format", "xml"},
		{"-scenarios", "-3"},
		{"-workers", "-1"},
		{"-match-workers", "-4"},
		{"-shards", "-1"},
		{"-segment-rows", "-1"},
		{"-trace-every", "0"},
		{"-trace-every", "-1"},
		{"-trace-every", "NaN"},
		{"-trace-every", "Inf"},
		{"-trace-every", "0.0002"}, // 0.72 virtual seconds
		{"-bogus"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestBuildGridSelectionAndTruncation(t *testing.T) {
	o, err := parseFlags([]string{"-grid", "mix", "-scenarios", "4", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	grid := buildGrid(o)
	if len(grid) != 4 {
		t.Fatalf("-scenarios 4 gave %d scenarios", len(grid))
	}
	for _, sc := range grid {
		if sc.Config.Seed != 9 {
			t.Errorf("scenario %s lost the base seed: %d", sc.ID, sc.Config.Seed)
		}
	}
	o, _ = parseFlags([]string{"-grid", "seeds"})
	if got := len(buildGrid(o)); got != 8 {
		t.Errorf("seeds grid has %d scenarios, want 8", got)
	}
}

// TestBuildGridCarriesStoreLayout pins the layout flags onto every
// scenario's config. Reports are byte-identical across layouts, so the
// output tests cannot notice a dropped -shards or -segment-rows.
func TestBuildGridCarriesStoreLayout(t *testing.T) {
	for _, grid := range []string{"robustness", "seeds", "mix", "verify"} {
		o, err := parseFlags([]string{"-grid", grid, "-shards", "3", "-segment-rows", "512"})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range buildGrid(o) {
			if sc.Config.Shards != 3 || sc.Config.SegmentRows != 512 {
				t.Errorf("%s/%s: Shards=%d SegmentRows=%d, want 3 and 512",
					grid, sc.ID, sc.Config.Shards, sc.Config.SegmentRows)
			}
		}
	}
}

// Acceptance: sweep output is byte-identical for -workers 1 and -workers 8
// on the same scenario grid, in both formats, for any shard count crossed
// with any segment size.
func TestOutputByteIdenticalAcrossWorkers(t *testing.T) {
	for _, format := range []string{"markdown", "json"} {
		args := []string{"-scenarios", "2", "-format", format}
		serial, err := parseFlags(append(args, "-workers", "1"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := run(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, extra := range [][]string{
			{"-workers", "8", "-match-workers", "4", "-shards", "2"},
			{"-workers", "8", "-shards", "8", "-segment-rows", "512"},
			{"-workers", "2", "-shards", "1", "-segment-rows", "4096"},
		} {
			parallel, err := parseFlags(append(args, extra...))
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s output diverged between -workers 1 and %v", format, extra)
			}
		}
		if format == "markdown" && !strings.Contains(a, "Scenario sweep — 2 scenario(s)") {
			t.Errorf("markdown header missing:\n%s", a)
		}
	}
}

// TestTraceSideFileDoesNotChangeReport runs a tiny traced sweep with
// concurrent workers: the report matches the untraced run and the trace
// file holds well-formed JSONL with per-scenario records.
func TestTraceSideFileDoesNotChangeReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-scenarios", "2", "-format", "json"}
	plain, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := parseFlags(append(args, "-workers", "2", "-trace", path, "-trace-every", "12"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := run(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("tracing changed the report")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Type == "span" {
			names[rec.Name]++
		}
	}
	if len(names) != 2 {
		t.Errorf("want one span per scenario (2), got %v", names)
	}
}
