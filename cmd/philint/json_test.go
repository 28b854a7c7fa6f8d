package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"phishare/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden report file")

// TestPhilintJSONGolden pins the -json report schema (version, count,
// findings with file/line/col/rule/message) against a checked-in
// document. CI and editor integrations parse this shape; changing it
// requires bumping jsonSchemaVersion and regenerating.
func TestPhilintJSONGolden(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("work", "phishare")
	findings := []analysis.Finding{
		{
			Pos:     token.Position{Filename: filepath.Join(root, "internal/sim/engine.go"), Line: 41, Column: 9},
			Rule:    "wallclock",
			Message: "call to time.Now reads the wall clock; sim code must use engine ticks",
		},
		{
			Pos:  token.Position{Filename: filepath.Join(root, "internal/classad/eval.go"), Line: 120, Column: 2},
			Rule: "mapiter",
			Message: "range over map attrs has nondeterministic iteration order; collect and sort the keys, " +
				"use an insertion-ordered structure, or make the body order-insensitive",
		},
	}

	var buf bytes.Buffer
	if err := writeJSON(&buf, root, findings); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	goldenPath := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON report mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Structural claims the golden cannot weaken: pinned version, count
	// matching findings, root-relative slash paths, and exactly the five
	// version-1 keys per finding.
	var report struct {
		Version  int `json:"version"`
		Count    int `json:"count"`
		Findings []map[string]any
	}
	if err := json.Unmarshal(got, &report); err != nil {
		t.Fatal(err)
	}
	if report.Version != jsonSchemaVersion {
		t.Errorf("version = %d, want %d", report.Version, jsonSchemaVersion)
	}
	if report.Count != len(report.Findings) || report.Count != 2 {
		t.Errorf("count = %d with %d findings, want 2", report.Count, len(report.Findings))
	}
	if f := report.Findings[0]; f["file"] != "internal/sim/engine.go" {
		t.Errorf("paths must be module-root-relative with forward slashes, got %q", f["file"])
	}
	for _, f := range report.Findings {
		if len(f) != 5 {
			t.Errorf("finding has keys %v, want file, line, col, rule, message", f)
		}
		for _, key := range []string{"file", "line", "col", "rule", "message"} {
			if _, ok := f[key]; !ok {
				t.Errorf("finding lacks %q: %v", key, f)
			}
		}
	}
}

// TestPhilintJSONEmpty: a clean run must emit findings as an empty array,
// not null — consumers index it unconditionally.
func TestPhilintJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, "/work", nil); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Count    int               `json:"count"`
		Findings []json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Count != 0 || report.Findings == nil || len(report.Findings) != 0 {
		t.Errorf("empty report must have count 0 and a non-null empty findings array, got %s", buf.String())
	}
}
