package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExitCodes pins the CLI contract: bad invocations exit 2 with a usage
// message, failing runs exit 1, good ones 0. Unknown subcommands and flags
// must never silently fall through.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-args", nil, 2},
		{"unknown-subcommand", []string{"frobnicate"}, 2},
		{"unknown-top-flag", []string{"-bogus", "list"}, 2},
		{"run-flag-before-subcommand", []string{"-full", "run", "E1"}, 2},
		{"unknown-run-flag", []string{"run", "-bogus", "E1"}, 2},
		{"unknown-serve-flag", []string{"serve", "-bogus"}, 2},
		{"serve-bad-partitioner", []string{"serve", "-shards", "2", "-partitioner", "zodiac"}, 2},
		{"serve-shards-over-cap", []string{"serve", "-shards", "100000"}, 2},
		{"serve-negative-cache", []string{"serve", "-cache-bytes", "-1"}, 2},
		{"serve-bad-log-level", []string{"serve", "-log-level", "loud"}, 2},
		{"serve-bad-log-format", []string{"serve", "-log-format", "xml"}, 2},
		{"serve-negative-slow-query", []string{"serve", "-slow-query-ms", "-5"}, 2},
		{"list-extra-args", []string{"list", "stray"}, 2},
		{"serve-extra-args", []string{"serve", "stray"}, 2},
		{"run-no-ids", []string{"run"}, 2},
		{"run-unknown-id", []string{"run", "ZZ9"}, 1},
		{"help", []string{"help"}, 0},
		{"top-help-flag", []string{"-h"}, 0},
		{"run-help-flag", []string{"run", "-h"}, 0},
		{"serve-help-flag", []string{"serve", "--help"}, 0},
		{"list", []string{"list"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Fatalf("pitract %v: exit %d, want %d", c.args, got, c.want)
			}
		})
	}
}

// TestServeSynopsisNamesEveryFlag holds the hand-written serve synopsis —
// the one string both usage texts print — to the flags cmdServe actually
// registers, read back from the per-flag help `pitract serve -h` prints.
func TestServeSynopsisNamesEveryFlag(t *testing.T) {
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run([]string{"serve", "-h"})
	os.Stdout = stdout
	w.Close()
	help, err := io.ReadAll(r)
	if err != nil || code != 0 {
		t.Fatalf("serve -h: exit %d, read error %v", code, err)
	}
	flags := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(string(help), -1)
	if len(flags) == 0 {
		t.Fatalf("serve -h lists no flags — the pattern or the usage text is broken:\n%s", help)
	}
	for _, f := range flags {
		if !strings.Contains(serveSynopsis, "[-"+f[1]+" ") {
			t.Errorf("flag -%s is registered by cmdServe but missing from serveSynopsis", f[1])
		}
	}
}
