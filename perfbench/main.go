// Command perfbench is the repository benchmark. It drives ridgewalker's
// public serving API the way users do — NewService, Submit, InsertEdges,
// DeleteEdges, CompactGraph — on one of three workloads, checks every
// reply, and prints its metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// also records spans around its calls into each layer and reports the
// per-layer set instead. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one run's settings and output.
type env struct {
	seed     uint64
	budget   time.Duration // measured time of the run
	tr       *tracer       // nil when untraced
	host     hostInfo
	cacheDir string // generated graphs, kept across runs
	// depGather and indepGather are the host's random-gather rates
	// (gathers/s), measured before the workload.
	depGather, indepGather float64

	lines   []string
	e2e     map[string]metric
	layer   map[string]metric
	tally   tally
	checker *checker
}

func (e *env) logf(format string, args ...any) {
	e.lines = append(e.lines, fmt.Sprintf(format, args...))
}

// put records an end-to-end metric.
func (e *env) put(name string, v float64, unit string) { e.e2e[name] = metric{v, unit} }

// putLayer records a per-layer metric.
func (e *env) putLayer(name string, v float64, unit string) { e.layer[name] = metric{v, unit} }

// workloads maps each -workload name to its runner.
var workloads = map[string]func(*env) error{
	"corpus":       runCorpus,
	"serve":        runServe,
	"serve-mutate": runServeMutate,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: corpus, serve or serve-mutate")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for cached graphs and the traced run's spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload corpus|serve|serve-mutate, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	e := &env{
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		host:     fingerprint(),
		cacheDir: *out,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# host %v\n", e.host)
	for _, w := range []struct {
		name  string
		scale int
	}{{"corpus", corpusScale}, {"serve, serve-mutate", serveScale}} {
		v := int64(1) << w.scale
		csr, alias := graphBytes(v, 16*v)
		fmt.Printf("# graph of %s: rmat-%d csr=%.0fMiB (%.2f of L3) csr+alias=%.0fMiB (%.2f of L3)\n", w.name, w.scale,
			float64(csr)/(1<<20), float64(csr)/float64(e.host.L3Bytes), float64(csr+alias)/(1<<20), float64(csr+alias)/float64(e.host.L3Bytes))
	}
	measureGather(e)
	fmt.Printf("# host random gathers over the corpus edge arena (%d MiB): dependent %.4g/s, independent %.4g/s\n",
		(int64(4)<<corpusScale*16)>>20, e.depGather, e.indepGather)

	err := run(e)
	for _, l := range e.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("peak_rss_mb %.6g MiB (VmHWM)\n", peakRSSMiB())

	ms := e.e2e
	if e.tr != nil {
		ms = e.layer
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(*out, 0o755); err == nil {
			err = e.tr.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# spans %s (%d)\n", path, len(e.tr.snapshot()))
	}
	printMetrics(ms)
	checkErr := e.checker.failure()
	fmt.Printf("# replies checked: %d\n", e.checker.replies)
	if checkErr != nil {
		fmt.Printf("# OUTPUT CHECK FAILED: %v\n", checkErr)
	}
	line, err := json.Marshal(result{
		Correct:   checkErr == nil,
		Attempted: e.tally.Attempted,
		Failed:    e.tally.failed(),
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if checkErr != nil {
		os.Exit(1)
	}
}

// printMetrics lists the reported metrics by name with units.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// finite maps a non-finite figure (no sample) to 0 so the JSON encodes.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// fmtSummary renders a latency summary with its sample count.
func fmtSummary(s summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p50=%.3fms", s.P50)
	if s.TailP > 0 {
		fmt.Fprintf(&b, " p%g=%.3fms", s.TailP, s.Tail)
	}
	fmt.Fprintf(&b, " n=%d failed=%d", s.N, s.Failed)
	return b.String()
}
