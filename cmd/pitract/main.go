// Command pitract runs the paper-reproduction experiment suite and serves
// preprocessed stores over HTTP.
//
// Usage:
//
//	pitract list                       list all experiments
//	pitract run <id>…                  run selected experiments (E1, F1, C3, …)
//	pitract run all                    run the whole suite
//	pitract run -full all              use each experiment's larger size sweep
//	pitract run -parallel 8 X1 X2      size the worker pools explicitly
//	pitract serve -addr :8080 -data ./data    serve the HTTP query API
//
// # Running in parallel
//
// The X1 and X2 experiments exercise the concurrent execution engine: X1
// substitutes the goroutine-parallel PRAM executor for the sequential
// oracle (verifying identical results, rounds, and work), and X2 answers
// query batches through the AnswerBatch worker pool. Both default to one
// worker per CPU (GOMAXPROCS); -parallel overrides the worker count. The
// serving stack itself is measured by the bench/ module (go run -C bench .),
// not by an experiment.
//
// # Serving
//
// `pitract serve` starts the preprocess-once/answer-many HTTP API: clients
// POST a dataset once (paying PTIME preprocessing, persisted as a snapshot
// under -data so restarts reload instead of recompute) and then answer any
// number of queries in the NC budget via /v1/query and /v1/query/batch.
// Datasets whose scheme has an incremental form are live-updatable: PATCH
// /v1/datasets/{id} maintains Π(D ⊕ ∆D) in place, bumps the dataset
// version, and re-snapshots atomically. See the package pitract
// documentation, examples/serve, and examples/maintain for clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pitract"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches the subcommand and returns the process exit code. Every
// unknown subcommand, unknown flag, or stray argument is a usage error
// (exit 2) with a message on stderr — never a silent fall-through.
func run(args []string) int {
	// The top-level FlagSet defines no flags: it exists for -h and to turn
	// anything else before the subcommand into a usage error. Every flag
	// lives on the subcommand that reads it.
	top := flag.NewFlagSet("pitract", flag.ContinueOnError)
	top.Usage = func() { usage(top.Output()) }
	if code := parseArgs(top, args); code >= 0 {
		return code
	}
	rest := top.Args()
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "pitract: missing subcommand")
		usage(os.Stderr)
		return 2
	}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "list":
		return cmdList(rest)
	case "run":
		return cmdRun(rest)
	case "serve":
		return cmdServe(rest)
	case "help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "pitract: unknown subcommand %q\n", cmd)
		usage(os.Stderr)
		return 2
	}
}

func cmdList(args []string) int {
	fs := flag.NewFlagSet("pitract list", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: pitract list") }
	if code := parseArgs(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pitract list: unexpected arguments %q\n", fs.Args())
		return 2
	}
	for _, e := range pitract.Experiments() {
		fmt.Printf("  %-4s %s\n", e.ID, e.Title)
	}
	return 0
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("pitract run", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pitract run [-full] [-parallel N] <id>... | all")
	}
	full := fs.Bool("full", false, "use each experiment's larger size sweep instead of Quick")
	parallel := fs.Int("parallel", 0, "worker count for the parallel experiments X1 and X2 (0 = one per CPU)")
	if code := parseArgs(fs, args); code >= 0 {
		return code
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "pitract run: need experiment ids or 'all'")
		return 2
	}
	scale := pitract.ScaleQuick
	if *full {
		scale = pitract.ScaleFull
	}
	pitract.SetExperimentParallelism(*parallel)
	var all []string
	known := map[string]bool{} // ids resolve case-insensitively, as RunExperiment does
	for _, e := range pitract.Experiments() {
		all = append(all, e.ID)
		known[strings.ToUpper(e.ID)] = true
	}
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		ids = all
	}
	// Resolve every id before running any: a typo in the last one must not
	// cost a full-scale run of the ones before it.
	for _, id := range ids {
		if !known[strings.ToUpper(id)] {
			fmt.Fprintf(os.Stderr, "pitract run: unknown experiment %q (see 'pitract list')\n", id)
			return 1
		}
	}
	for _, id := range ids {
		if err := pitract.RunExperiment(os.Stdout, id, scale); err != nil {
			fmt.Fprintf(os.Stderr, "pitract run: %v\n", err)
			return 1
		}
	}
	return 0
}

func cmdServe(args []string) int {
	fs := flag.NewFlagSet("pitract serve", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage:\n  %s\n", serveSynopsis)
		fs.PrintDefaults()
	}
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "", "snapshot directory for preprocessed stores (empty = in-memory only)")
	cacheBytes := fs.Int64("cache-bytes", 0, "answer-cache budget in bytes: memoize hot verdicts of traversal schemes (0 = no cache)")
	maxInFlight := fs.Int("max-inflight", 0, "admitted work requests across the server; beyond it requests get 429 + Retry-After (0 = unlimited)")
	maxInFlightDS := fs.Int("max-inflight-dataset", 0, "admitted work requests per dataset id (0 = unlimited)")
	maxBodyBytes := fs.Int64("max-body-bytes", 0, "request-body byte cap; larger bodies get 413 (0 = the 64 MiB default)")
	maxBatch := fs.Int("max-batch", 0, "queries per /v1/query/batch request; larger batches get 413 (0 = the 4096 default)")
	registerBudget := fs.Duration("register-budget", 0, "wall budget per registration or PATCH, e.g. 30s; over-budget work is abandoned with 503 (0 = none)")
	queryBudgetMs := fs.Int64("query-budget-ms", 0, "wall budget per query or batch in milliseconds; an overrun gets 504 at most one probe late, with no work left running (0 = none)")
	retryAfter := fs.Duration("retry-after", 0, "delay advertised in 429 Retry-After headers (0 = the 1s default)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, or error (debug logs every request)")
	logFormat := fs.String("log-format", "text", "structured log format on stderr: text or json")
	slowQueryMs := fs.Int64("slow-query-ms", 0, "log requests slower than this many milliseconds at warn level (0 = no slow-query log)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on its own listener, e.g. localhost:6060 (empty = disabled)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "delta-log records to accumulate before a snapshot checkpoint truncates the log; higher = faster PATCHes, longer replay after a crash (0 = checkpoint every batch)")
	if code := parseArgs(fs, args); code >= 0 {
		return code
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "pitract serve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *cacheBytes < 0 {
		fmt.Fprintf(os.Stderr, "pitract serve: -cache-bytes %d: want a non-negative byte budget\n", *cacheBytes)
		return 2
	}
	for name, v := range map[string]int64{
		"-max-inflight": int64(*maxInFlight), "-max-inflight-dataset": int64(*maxInFlightDS),
		"-max-body-bytes": *maxBodyBytes, "-max-batch": int64(*maxBatch),
		"-register-budget": int64(*registerBudget), "-query-budget-ms": *queryBudgetMs,
		"-retry-after": int64(*retryAfter), "-slow-query-ms": *slowQueryMs,
		"-checkpoint-every": int64(*checkpointEvery),
	} {
		if v < 0 {
			fmt.Fprintf(os.Stderr, "pitract serve: %s: want a non-negative value\n", name)
			return 2
		}
	}
	var level slog.Level
	switch *logLevel {
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		fmt.Fprintf(os.Stderr, "pitract serve: -log-level %q: want debug, info, warn, or error\n", *logLevel)
		return 2
	}
	handlerOpts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, handlerOpts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, handlerOpts)
	default:
		fmt.Fprintf(os.Stderr, "pitract serve: -log-format %q: want text or json\n", *logFormat)
		return 2
	}

	reg := pitract.NewStoreRegistry(*data)
	if *checkpointEvery > 0 {
		reg.SetCheckpointEvery(*checkpointEvery)
	}
	srv := pitract.NewServer(reg, nil)
	if *cacheBytes > 0 {
		srv.SetAnswerCache(pitract.NewAnswerCache(*cacheBytes))
	}
	srv.SetLimits(pitract.ServerLimits{
		MaxInFlight:           *maxInFlight,
		MaxInFlightPerDataset: *maxInFlightDS,
		MaxBodyBytes:          *maxBodyBytes,
		MaxBatchQueries:       *maxBatch,
		RegisterBudget:        *registerBudget,
		QueryBudget:           time.Duration(*queryBudgetMs) * time.Millisecond,
		RetryAfter:            *retryAfter,
	})
	srv.SetLogger(slog.New(handler))
	srv.SetSlowQueryThreshold(time.Duration(*slowQueryMs) * time.Millisecond)
	// Bind before announcing, so the "listening" line means the port is
	// live (and reports the real port when -addr ends in :0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pitract serve: %v\n", err)
		return 1
	}
	// pprof rides its own off-by-default listener with an explicit mux, so
	// the profiling surface never shares a port (or an accidental
	// DefaultServeMux registration) with the query API.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintf(os.Stderr, "pitract serve: -pprof-addr: %v\n", err)
			return 1
		}
		defer pln.Close()
		go http.Serve(pln, pm)
		fmt.Printf("pitract serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	persistence := "in-memory only (no -data directory)"
	if *data != "" {
		persistence = "snapshots under " + *data
	}
	if *cacheBytes > 0 {
		persistence += fmt.Sprintf(", answer cache %d bytes", *cacheBytes)
	}
	if *maxInFlight > 0 || *maxInFlightDS > 0 || *registerBudget > 0 {
		persistence += fmt.Sprintf(", envelope: in-flight %s global / %s per dataset, register budget %s",
			limitOrUnlimited(*maxInFlight), limitOrUnlimited(*maxInFlightDS), budgetOrNone(*registerBudget))
	}
	schemes := make([]string, 0)
	for name := range pitract.ServeCatalog() {
		schemes = append(schemes, name)
	}
	sort.Strings(schemes)
	fmt.Printf("pitract serve: listening on %s, %s\n", ln.Addr(), persistence)
	fmt.Printf("  schemes: %s\n", strings.Join(schemes, ", "))
	fmt.Printf("  POST /v1/datasets · GET /v1/datasets · GET/PATCH /v1/datasets/{id} · POST /v1/query · POST /v1/query/batch · GET /v1/stats · GET /metrics · GET /healthz\n")

	// Graceful shutdown: SIGINT/SIGTERM drains in-flight requests.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil {
			fmt.Fprintf(os.Stderr, "pitract serve: %v\n", err)
			return 1
		}
	case sig := <-sigCh:
		fmt.Printf("pitract serve: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pitract serve: shutdown: %v\n", err)
			return 1
		}
		// Serve returns nil after a clean Shutdown; anything else is a real
		// listener failure that raced the signal and must not be masked.
		if err := <-errCh; err != nil {
			fmt.Fprintf(os.Stderr, "pitract serve: %v\n", err)
			return 1
		}
	}
	return 0
}

// limitOrUnlimited renders a concurrency limit for the startup banner.
func limitOrUnlimited(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", n)
}

// budgetOrNone renders a duration budget for the startup banner.
func budgetOrNone(d time.Duration) string {
	if d <= 0 {
		return "none"
	}
	return d.String()
}

// parseArgs parses args with fs, routing -h/--help usage to stdout (exit
// 0) and parse errors plus usage to stderr (exit 2). Returns -1 when
// parsing succeeded and the caller should continue.
func parseArgs(fs *flag.FlagSet, args []string) int {
	// Parse silently; the switch below decides where output belongs —
	// the flag package's default would send help to stderr.
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	switch {
	case err == nil:
		fs.SetOutput(os.Stderr)
		return -1
	case err == flag.ErrHelp:
		fs.SetOutput(os.Stdout)
		fs.Usage()
		return 0
	default:
		fmt.Fprintln(os.Stderr, err)
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return 2
	}
}

// serveSynopsis is the one list of `pitract serve` flags, printed by the
// top-level usage and by `pitract serve -h`;
// TestServeSynopsisNamesEveryFlag holds it to the flags cmdServe registers.
const serveSynopsis = `pitract serve [-addr :8080] [-data DIR] [-cache-bytes N]
                [-max-inflight N] [-max-inflight-dataset N]
                [-max-body-bytes N] [-max-batch N] [-register-budget D]
                [-query-budget-ms N] [-retry-after D] [-log-level L]
                [-log-format F] [-slow-query-ms N] [-pprof-addr ADDR]
                [-checkpoint-every N]`

func usage(w io.Writer) {
	fmt.Fprintf(w, `pitract — "Making Queries Tractable on Big Data with Preprocessing"

usage:
  pitract list                              list experiments
  pitract run [-full] [-parallel N] <id>... run experiments (or 'run all')
  %s
                                            serve preprocessed stores over HTTP

running in parallel:
  X1 races the goroutine-parallel PRAM executor against the sequential
  oracle; X2 answers query batches through the AnswerBatch worker pool.
  Both use one worker per CPU unless -parallel N overrides it. The serving
  stack is measured by the bench/ module (go run -C bench .), not by an
  experiment.

serving:
  'pitract serve' exposes the preprocess-once/answer-many API: register a
  dataset once (POST /v1/datasets), answer queries forever (POST /v1/query,
  /v1/query/batch). With -data DIR, Π(D) is persisted as a checksummed
  snapshot and reloaded on restart instead of recomputed. A registration
  with ?shards=N cuts its dataset into N key ranges, each preprocessed on
  its own, and queries are routed to the owning shard or fanned out and
  merged. Only point-selection/sorted-keys (point and range queries),
  list-membership/sorted and reachability/closure-matrix|labels shard;
  ?shards=N on any other scheme is a 400.
  PATCH /v1/datasets/{id} maintains registered datasets in place under
  deltas (Π(D ⊕ ∆D), versioned, logged write-ahead and re-snapshotted
  atomically — every batch, or every N batches with -checkpoint-every N:
  faster PATCHes, a longer log replay after a crash).
  With -cache-bytes N, the server memoizes hot verdicts of traversal
  schemes — the ones whose answer step walks D (reachability/bfs-per-query,
  point-selection/scan) — in a sharded in-memory LRU with singleflight
  coalescing, keyed by (dataset, version, query) so a PATCH invalidates
  stale entries for free; schemes answered by an index probe of Π are not
  fronted (the probe is cheaper than the lookup). Hit/miss/coalesced
  counters appear in /v1/stats and /metrics. The serving envelope bounds what one request or one
  burst can cost: -max-body-bytes and -max-batch refuse oversized work with
  413, -max-inflight/-max-inflight-dataset refuse work beyond the
  concurrency limits with 429 + Retry-After (tune the advertised delay with
  -retry-after), and -register-budget abandons registrations or PATCHes
  that outrun their wall budget with 503 and no catalog side effects.
  -query-budget-ms gives each query or batch its own deadline: an
  overrun gets 504 at most one probe late, and none of its work is left
  running.
  Each dataset carries a health circuit breaker — repeated serve-path
  failures trip it open (fast 503 + Retry-After until a backoff-paced
  probe heals it; see GET /healthz), and corrupt snapshots and delta
  logs are quarantined aside and rebuilt from source.
  Rejection counters and the in-flight gauge appear in /v1/stats. See
  docs/ARCHITECTURE.md and docs/API.md.

observability:
  Every serve-path stage (admission, cache lookup, shard fan-out/merge,
  preprocess, snapshot I/O, PATCH apply/persist) records into lock-free
  latency histograms exposed three ways: GET /metrics renders Prometheus
  text exposition (never metered by the envelope), GET /v1/stats reports
  per-scheme and per-stage percentiles plus uptime and build info, and
  structured request logs on stderr carry the X-Request-ID of every
  request (-log-level debug logs each request; -slow-query-ms N warns on
  slow ones; -log-format picks text or json). -pprof-addr serves
  net/http/pprof on its own listener, off by default.
`, serveSynopsis)
}
