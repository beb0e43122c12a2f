// Command sx4ctl is the resilient command-line client for the sx4d
// daemon: internal/client with a front panel. It retries shed load
// with capped, seeded-jitter backoff and honors the daemon's
// Retry-After hints, so scripts built on it survive an overloaded or
// restarting server.
//
// Usage:
//
//	sx4ctl [-addr URL] run -machine sx4-32 [-benchmarks COPY,IA] [-cpus N] [-fault-seed N]
//	sx4ctl [-addr URL] sweep < queries.ndjson
//	sx4ctl [-addr URL] stats
//
// run answers one query and prints the response JSON; -expect-cache
// asserts the X-Sx4d-Cache state (the warm-restart smoke uses
// `-expect-cache hit` to prove a restarted daemon kept its cache).
// sweep streams NDJSON queries from stdin and prints one answer line
// per query, in order. stats prints the daemon's counters.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sx4bench/internal/client"
	"sx4bench/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sx4ctl [-addr URL] [-retries N] [-jitter-seed N] [-timeout D] run|sweep|stats [args]\n")
}

func run(args []string) int {
	global := flag.NewFlagSet("sx4ctl", flag.ContinueOnError)
	addr := global.String("addr", "http://127.0.0.1:8700", "daemon base URL")
	retries := global.Int("retries", 0, "max retries after the first attempt (0 = default)")
	seed := global.Int64("jitter-seed", 0, "deterministic backoff jitter seed")
	timeout := global.Duration("timeout", 2*time.Minute, "overall deadline per command (0 = none)")
	if err := global.Parse(args); err != nil {
		return 2
	}
	if global.NArg() < 1 {
		usage()
		return 2
	}
	c := client.New(client.Config{
		BaseURL:    strings.TrimRight(*addr, "/"),
		MaxRetries: *retries,
		JitterSeed: *seed,
	})
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cmd, rest := global.Arg(0), global.Args()[1:]
	switch cmd {
	case "run":
		return runQuery(ctx, c, rest)
	case "sweep":
		return runSweep(ctx, c, rest)
	case "stats":
		return runStats(ctx, c, rest)
	default:
		fmt.Fprintf(os.Stderr, "sx4ctl: unknown command %q\n", cmd)
		usage()
		return 2
	}
}

func runQuery(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("sx4ctl run", flag.ContinueOnError)
	machine := fs.String("machine", "", "registry machine name (required)")
	benchmarks := fs.String("benchmarks", "", "comma-separated suite members (empty = whole suite)")
	cpus := fs.Int("cpus", 0, "CPU allocation (0 = machine's full count)")
	faultSeed := fs.Int64("fault-seed", 0, "fault schedule seed (0 = fault-free)")
	expect := fs.String("expect-cache", "", "fail unless X-Sx4d-Cache matches (hit|miss|coalesced)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		return 2
	}
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "sx4ctl run: -machine is required")
		return 2
	}
	req := serve.RunRequest{Machine: *machine, CPUs: *cpus, FaultSeed: *faultSeed}
	if *benchmarks != "" {
		for _, b := range strings.Split(*benchmarks, ",") {
			req.Benchmarks = append(req.Benchmarks, strings.TrimSpace(b))
		}
	}
	res, err := c.Run(ctx, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sx4ctl run: %v\n", err)
		return 1
	}
	os.Stdout.Write(res.Body)
	if *expect != "" && res.CacheState != *expect {
		fmt.Fprintf(os.Stderr, "sx4ctl run: cache state %q, expected %q\n", res.CacheState, *expect)
		return 1
	}
	return 0
}

func runSweep(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("sx4ctl sweep", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		return 2
	}
	var reqs []serve.RunRequest
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		req, err := serve.DecodeRunRequest([]byte(line))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sx4ctl sweep: %v\n", err)
			return 2
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "sx4ctl sweep: reading stdin: %v\n", err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	err := c.Sweep(ctx, reqs, func(i int, line []byte) error {
		out.Write(line)
		out.WriteByte('\n')
		return out.Flush()
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sx4ctl sweep: %v\n", err)
		return 1
	}
	return 0
}

func runStats(ctx context.Context, c *client.Client, args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "sx4ctl stats: no arguments expected")
		return 2
	}
	st, err := c.Stats(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sx4ctl stats: %v\n", err)
		return 1
	}
	fmt.Printf("requests=%d run_queries=%d cache_hits=%d coalesced=%d executed=%d errors=%d\n",
		st.Requests, st.RunQueries, st.CacheHits, st.Coalesced, st.RunsExecuted, st.Errors)
	fmt.Printf("admission: requested=%d admitted=%d shed=%d queue_timeouts=%d queue_cancelled=%d completed=%d in_flight=%d queue_depth=%d\n",
		st.AdmitRequests, st.Admitted, st.Shed, st.QueueTimeouts, st.QueueCancelled, st.Completed, st.InFlight, st.QueueDepth)
	fmt.Printf("cache: entries=%d bytes=%d evictions=%d hit_rate=%.3f warm_start=%v restored=%d\n",
		st.CacheEntries, st.CacheBytes, st.CacheEvictions, st.CacheHitRate, st.WarmStart, st.RestoredEntries)
	return 0
}
