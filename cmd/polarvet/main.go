// Command polarvet runs the repository's architectural static analyzers
// (internal/lint) over the module: nosleep, layering, errdrop, pairing,
// regionescape, verbdeadline, lockorder, fabriccost.
//
// Usage:
//
//	go run ./cmd/polarvet ./...
//	go run ./cmd/polarvet ./internal/engine ./internal/cluster/...
//	go run ./cmd/polarvet -github -json polarvet.json ./...
//
// Exit status: 0 clean, 1 findings, 2 load/usage failure. -json FILE
// writes the run's whole report as one JSON object ("-" means stdout):
// the findings (stable order), the module's lock classes and observed
// acquisition orderings, and every fabric-issuing function's round-trip
// cost summary (verbs, loop multiplicity, witness path, declared budget)
// — all views of the one solve the findings came from. -github prints
// GitHub Actions workflow annotations so findings appear inline on
// pull-request diffs. The report is written before the process exits,
// findings or not. Suppress an individual finding with an adjacent
//
//	//polarvet:allow <analyzer> <reason>
//
// comment; the reason is mandatory and should say why the invariant is
// safe to break at that site.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"polardb/internal/lint"
)

// jsonFinding is the machine-readable shape of one finding. File is
// module-root-relative when the finding is inside the module.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is everything one run knows, as written by -json.
type jsonReport struct {
	Findings  []jsonFinding         `json:"findings"`
	LockGraph *lint.LockGraph       `json:"lockgraph"`
	Fabric    []lint.FabricFuncCost `json:"fabric"`
}

func main() {
	root := flag.String("C", ".", "module root (directory containing go.mod)")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	jsonOut := flag.String("json", "", "write findings, lock graph and fabric-cost table as one JSON object to `file` (\"-\" = stdout)")
	asGitHub := flag.Bool("github", false, "print findings as GitHub Actions annotations")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := lint.LoadModule(*root)
	if err != nil {
		fatal(err)
	}
	analyzers := lint.Analyzers()
	if *only != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				sel = append(sel, a)
				delete(want, a.Name())
			}
		}
		if len(want) > 0 || len(sel) == 0 {
			fatal(fmt.Errorf("unknown analyzers in -analyzers=%s", *only))
		}
		analyzers = sel
	}
	res, err := lint.Run(mod, patterns, analyzers)
	if err != nil {
		fatal(err)
	}
	findings := res.Findings

	// The report is written before the findings-driven exit so a failing
	// CI run still produces its artifact.
	if *jsonOut != "" {
		rep := jsonReport{Findings: []jsonFinding{}, LockGraph: res.LockGraph(), Fabric: res.FabricReport()}
		for _, f := range findings {
			rep.Findings = append(rep.Findings, jsonFinding{
				Analyzer: f.Analyzer,
				File:     relToRoot(mod.Root, f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := writeOutput(*jsonOut, append(buf, '\n')); err != nil {
			fatal(err)
		}
	}
	switch {
	case *asGitHub:
		for _, f := range findings {
			// https://docs.github.com/actions/reference/workflow-commands:
			// newlines and a few metacharacters must be percent-escaped.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=polarvet %s::%s\n",
				relToRoot(mod.Root, f.Pos.Filename), f.Pos.Line, f.Pos.Column,
				f.Analyzer, githubEscape(f.Message))
		}
	case *jsonOut != "":
		// The JSON output already carries the findings; keep stdout quiet
		// unless it was the JSON destination itself.
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "polarvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// fatal reports a load or usage failure and exits with status 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polarvet:", err)
	os.Exit(2)
}

// writeOutput writes data to the named file, or stdout for "-".
func writeOutput(name string, data []byte) error {
	if name == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(name, data, 0o644)
}

// relToRoot rewrites filename relative to the module root so annotations
// and JSON match repository paths regardless of where polarvet ran.
func relToRoot(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// githubEscape encodes the characters the workflow-command parser treats
// specially in annotation messages.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
