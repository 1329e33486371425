package main

import (
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
		{"serve-negative-shards", []string{"serve", "-shards", "-3"}, 2},
		{"serve-negative-cache", []string{"serve", "-cache-bytes", "-1"}, 2},
		{"serve-bad-log-level", []string{"serve", "-log-level", "loud"}, 2},
		{"serve-bad-log-format", []string{"serve", "-log-format", "xml"}, 2},
		{"serve-negative-slow-query", []string{"serve", "-slow-query-ms", "-5"}, 2},
		{"list-extra-args", []string{"list", "stray"}, 2},
		{"serve-extra-args", []string{"serve", "stray"}, 2},
		{"run-no-ids", []string{"run"}, 2},
		{"run-unknown-id", []string{"run", "ZZ9"}, 1},
		{"run-unknown-id-after-a-known-one", []string{"run", "E1", "ZZ9"}, 1},
		{"help", []string{"help"}, 0},
		{"top-help-flag", []string{"-h"}, 0},
		{"run-help-flag", []string{"run", "-h"}, 0},
		{"serve-help-flag", []string{"serve", "--help"}, 0},
		{"list", []string{"list"}, 0},
	}
	// Refusals made before anything ran: stderr holds exactly this line and
	// stdout nothing — no table of a valid id ahead of the bad one, no
	// "listening" banner.
	const unknownZZ9 = "pitract run: unknown experiment \"ZZ9\" (see 'pitract list')\n"
	refusal := map[string]string{
		"run-unknown-id":                   unknownZZ9,
		"run-unknown-id-after-a-known-one": unknownZZ9,
		"serve-negative-shards":            "pitract serve: -shards: want a non-negative value\n",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, stdout, stderr := capture(t, c.args)
			if got != c.want {
				t.Fatalf("pitract %v: exit %d, want %d", c.args, got, c.want)
			}
			if want, ok := refusal[c.name]; ok && (stderr != want || stdout != "") {
				t.Fatalf("pitract %v: stdout %q, stderr %q; want nothing run and stderr %q", c.args, stdout, stderr, want)
			}
		})
	}
}

// capture runs the CLI with stdout and stderr redirected to files (a pipe
// would block on a table larger than its buffer) and returns the exit code
// with both streams.
func capture(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	redirect := func(stream **os.File) (restore func() string) {
		f, err := os.CreateTemp(t.TempDir(), "stream")
		if err != nil {
			t.Fatal(err)
		}
		saved := *stream
		*stream = f
		return func() string {
			*stream = saved
			f.Close()
			b, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
	}
	out, errOut := redirect(&os.Stdout), redirect(&os.Stderr)
	code = run(args)
	return code, out(), errOut()
}

// TestServeSynopsisNamesEveryFlag holds the hand-written serve synopsis —
// the one string both usage texts print — to the flags cmdServe actually
// registers, read back from the per-flag help `pitract serve -h` prints.
func TestServeSynopsisNamesEveryFlag(t *testing.T) {
	code, help, _ := capture(t, []string{"serve", "-h"})
	if code != 0 {
		t.Fatalf("serve -h: exit %d", code)
	}
	flags := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(help, -1)
	if len(flags) == 0 {
		t.Fatalf("serve -h lists no flags — the pattern or the usage text is broken:\n%s", help)
	}
	for _, f := range flags {
		if !strings.Contains(serveSynopsis, "[-"+f[1]+" ") {
			t.Errorf("flag -%s is registered by cmdServe but missing from serveSynopsis", f[1])
		}
	}
}
