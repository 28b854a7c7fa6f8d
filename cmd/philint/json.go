package main

// JSON output (-json): the machine-readable face of the lint gate. The
// schema is pinned by TestPhilintJSONGolden in this package; editors and
// CI annotate from it without scraping the text form.

import (
	"encoding/json"
	"io"
	"path/filepath"

	"phishare/internal/analysis"
)

// jsonSchemaVersion identifies the report shape; consumers should reject
// versions they do not know.
const jsonSchemaVersion = 1

// jsonFinding is one finding with module-root-relative paths (stable across
// checkouts, unlike absolute paths or cwd-relative ones).
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

type jsonReport struct {
	Version  int           `json:"version"`
	Count    int           `json:"count"`
	Findings []jsonFinding `json:"findings"`
}

// writeJSON renders the findings as one indented JSON document.
func writeJSON(w io.Writer, root string, findings []analysis.Finding) error {
	report := jsonReport{Version: jsonSchemaVersion, Findings: []jsonFinding{}}
	for _, f := range findings {
		report.Findings = append(report.Findings, jsonFinding{
			File:    rootRel(root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Col:     f.Pos.Column,
			Rule:    f.Rule,
			Message: f.Message,
		})
	}
	report.Count = len(report.Findings)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(report)
}

func rootRel(root, file string) string {
	if file == "" || file == "(module)" {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
