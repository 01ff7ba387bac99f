// Command jsoncheck validates that each argument file parses as a single
// JSON document. The smoke scripts (scripts/serve_smoke.sh,
// scripts/serve_load.sh, scripts/store_restart.sh) use it to refuse
// truncated or malformed output without depending on tools outside the Go
// toolchain.
//
//	go run ./scripts/jsoncheck file.json...
//
// Exit status: 0 if every file holds exactly one JSON document, 1 on the
// first file that does not (or cannot be read), 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run checks the files named in args and returns the exit status,
// writing any diagnostic to stderr.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("jsoncheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: jsoncheck file.json...")
		return 2
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "jsoncheck:", err)
			return 1
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var v any
		if err := dec.Decode(&v); err != nil {
			fmt.Fprintf(stderr, "jsoncheck: %s: %v\n", path, err)
			return 1
		}
		if dec.More() {
			fmt.Fprintf(stderr, "jsoncheck: %s: trailing data after JSON document\n", path)
			return 1
		}
	}
	return 0
}
