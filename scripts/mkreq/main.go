// Command mkreq packs MiniC source files into a POST /v1/analyze request body
// (see internal/server.AnalyzeRequest). scripts/serve_smoke.sh uses it to
// build smoke-test requests without depending on jq or python.
//
// Usage: mkreq [-checkers all] [-witness] [-project id] file.mc... > request.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	sel := flag.String("checkers", "all", "comma-separated checker list, or 'all'")
	witness := flag.Bool("witness", false, "request per-report provenance")
	project := flag.String("project", "", "route the request to this tenant project (empty = default tenant, field omitted)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mkreq [-checkers list] [-witness] [-project id] file.mc...")
		os.Exit(2)
	}

	type unit struct {
		Name string `json:"name"`
		Src  string `json:"src"`
	}
	req := struct {
		Project  string   `json:"project,omitempty"`
		Units    []unit   `json:"units"`
		Checkers []string `json:"checkers,omitempty"`
		Witness  bool     `json:"witness,omitempty"`
	}{Project: *project, Witness: *witness}
	for _, name := range strings.Split(*sel, ",") {
		if name = strings.TrimSpace(name); name != "" {
			req.Checkers = append(req.Checkers, name)
		}
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mkreq:", err)
			os.Exit(1)
		}
		req.Units = append(req.Units, unit{Name: path, Src: string(data)})
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(req); err != nil {
		fmt.Fprintln(os.Stderr, "mkreq:", err)
		os.Exit(1)
	}
}
