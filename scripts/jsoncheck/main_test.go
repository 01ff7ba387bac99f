package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	valid := write("valid.json", `{"reports": [], "ok": true}`+"\n")
	cases := []struct {
		name    string
		args    []string
		status  int
		message string // substring of stderr; empty means stderr must be empty
	}{
		{"valid document", []string{valid}, 0, ""},
		{"malformed", []string{write("bad.json", `{"a": 1,}`)}, 1, "bad.json: invalid character '}'"},
		{"trailing data", []string{write("two.json", `{} {}`)}, 1, "two.json: trailing data after JSON document"},
		{"empty file", []string{write("empty.json", "")}, 1, "empty.json: EOF"},
		{"missing path", []string{filepath.Join(dir, "absent.json")}, 1, "absent.json: no such file or directory"},
		{"stops at first bad file", []string{valid, write("cut.json", `{"a": [1, 2`), valid}, 1, "cut.json: unexpected EOF"},
		{"no arguments", nil, 2, "usage: jsoncheck file.json..."},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := run(c.args, &stderr); got != c.status {
				t.Errorf("status = %d, want %d (stderr %q)", got, c.status, stderr.String())
			}
			msg := stderr.String()
			if c.message == "" {
				if msg != "" {
					t.Errorf("stderr = %q, want empty", msg)
				}
				return
			}
			if !strings.Contains(msg, c.message) {
				t.Errorf("stderr = %q, want it to contain %q", msg, c.message)
			}
		})
	}
}
