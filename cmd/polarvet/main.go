// Command polarvet runs the repository's architectural static analyzers
// (internal/lint) over the module: nosleep, layering, errdrop, pairing,
// regionescape, verbdeadline, lockorder, fabriccost.
//
// Usage:
//
//	go run ./cmd/polarvet ./...
//	go run ./cmd/polarvet ./internal/engine ./internal/cluster/...
//	go run ./cmd/polarvet -json findings.json ./...
//	go run ./cmd/polarvet -github -lockgraph lockgraph.dot ./...
//	go run ./cmd/polarvet -fabricreport fabric.json -fabricgraph fabric.dot ./...
//
// Exit status: 0 clean, 1 findings, 2 load/usage failure. -json FILE
// writes findings as a JSON array (machine-readable, stable order; "-"
// means stdout); -github prints GitHub Actions workflow annotations so
// findings appear inline on pull-request diffs; -lockgraph FILE dumps
// the module's lock classes and observed acquisition orderings as
// Graphviz DOT ("-" means stdout); -fabricreport FILE dumps every
// fabric-issuing function's round-trip cost summary (verbs, loop
// multiplicity, declared budget) as JSON, and -fabricgraph FILE the
// same call graph as Graphviz DOT. All requested outputs are written
// before the process exits, findings or not. Suppress an individual
// finding with an adjacent
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

func main() {
	root := flag.String("C", ".", "module root (directory containing go.mod)")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	jsonOut := flag.String("json", "", "write findings as a JSON array to `file` (\"-\" = stdout)")
	asGitHub := flag.Bool("github", false, "print findings as GitHub Actions annotations")
	lockgraph := flag.String("lockgraph", "", "write the lock acquisition-order graph as Graphviz DOT to `file` (\"-\" = stdout)")
	fabricreport := flag.String("fabricreport", "", "write per-function fabric-cost summaries as JSON to `file` (\"-\" = stdout)")
	fabricgraph := flag.String("fabricgraph", "", "write the fabric-cost call graph as Graphviz DOT to `file` (\"-\" = stdout)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := lint.LoadModule(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarvet:", err)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "polarvet: unknown analyzers in -analyzers=%s\n", *only)
			os.Exit(2)
		}
		analyzers = sel
	}
	findings, err := lint.Run(mod, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polarvet:", err)
		os.Exit(2)
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		absRoot = *root
	}

	// Requested outputs are written before the findings-driven exit so a
	// failing CI run still produces its artifacts.
	if *lockgraph != "" {
		g, err := lint.BuildLockGraph(mod, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarvet:", err)
			os.Exit(2)
		}
		if err := writeOutput(*lockgraph, []byte(g.DOT())); err != nil {
			fmt.Fprintln(os.Stderr, "polarvet:", err)
			os.Exit(2)
		}
	}
	if *fabricreport != "" || *fabricgraph != "" {
		rep, err := lint.BuildFabricReport(mod, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarvet:", err)
			os.Exit(2)
		}
		if *fabricreport != "" {
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "polarvet:", err)
				os.Exit(2)
			}
			if err := writeOutput(*fabricreport, append(buf, '\n')); err != nil {
				fmt.Fprintln(os.Stderr, "polarvet:", err)
				os.Exit(2)
			}
		}
		if *fabricgraph != "" {
			if err := writeOutput(*fabricgraph, []byte(rep.DOT())); err != nil {
				fmt.Fprintln(os.Stderr, "polarvet:", err)
				os.Exit(2)
			}
		}
	}
	if *jsonOut != "" {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     relToRoot(absRoot, f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "polarvet:", err)
			os.Exit(2)
		}
		if err := writeOutput(*jsonOut, append(buf, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "polarvet:", err)
			os.Exit(2)
		}
	}
	switch {
	case *asGitHub:
		for _, f := range findings {
			// https://docs.github.com/actions/reference/workflow-commands:
			// newlines and a few metacharacters must be percent-escaped.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=polarvet %s::%s\n",
				relToRoot(absRoot, f.Pos.Filename), f.Pos.Line, f.Pos.Column,
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
