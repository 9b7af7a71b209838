package driver

import (
	"encoding/json"
	"path/filepath"
	"sort"

	"qsmpi/internal/lint/analysis"
)

// SARIF rendering of qsmpilint findings: the Static Analysis Results
// Interchange Format 2.1.0, the schema CI annotation surfaces (GitHub
// code scanning among them) ingest natively. One run, one tool, one rule
// per analyzer (plus the suppression audit), one result per finding.
// Findings arrive already sorted (sortFindings), so the report is
// byte-stable for identical inputs.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders findings as a SARIF 2.1.0 report. root, when non-empty,
// is stripped from filenames so artifact URIs are repo-relative — what CI
// annotation matching requires.
func SARIF(findings []Finding, analyzers []*analysis.Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		doc := a.Doc
		if len(doc) > 200 {
			doc = doc[:200]
		}
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: doc}})
	}
	rules = append(rules, sarifRule{
		ID:               analysis.SuppressionName,
		ShortDescription: sarifMessage{Text: "flag //lint:allow directives that suppress nothing"},
	})
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, uri); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
				uri = rel
			}
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(uri)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "qsmpilint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}

func hasDotDotPrefix(rel string) bool {
	return rel == ".." || (len(rel) >= 3 && rel[:3] == "../")
}
