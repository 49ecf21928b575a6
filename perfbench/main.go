// Command perfbench is the repository benchmark: one seeded command that
// runs one of three closed-loop workloads against the real modules and
// prints the end-to-end metrics (tracing off) or the per-layer metrics
// (tracing on), after checking a seeded sample of answers against an
// independent reference.
//
//	perfbench --workload navigate|analyst|ingest --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer or a pooled
// buffer that leaks across the timed window makes the command exit 1.
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// workloads lists the accepted --workload values.
var workloads = []string{"navigate", "analyst", "ingest"}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	work      string // scratch directory for generated inputs and spans
	setupOnly bool   // child mode: time one set-up over dir, print it, exit
	dir       string // dataset directory (child mode)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if cfg.setupOnly {
		return runSetupChild(cfg, stdout, stderr)
	}
	rep, err := benchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, cfg.trace)
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: run is not correct:", rep.why)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: navigate, analyst or ingest")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced half and reports per-layer metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build", "scratch directory for generated inputs")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "time one set-up over --dir and exit (used by the parent run)")
	fs.StringVar(&cfg.dir, "dir", "", "dataset directory for --setup-only")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return cfg, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	case cfg.seconds < 1:
		return cfg, errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return cfg, errors.New("--trace must be 0 or 1")
	case cfg.setupOnly && cfg.dir == "":
		return cfg, errors.New("--setup-only needs --dir")
	}
	cfg.trace = *trace == 1
	return cfg, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	meta     map[string]any
	endToEnd map[string]metric // printed by name in both modes
	perLayer map[string]metric
	notes    []string
	why      string
}

// print writes the human-readable lines, the metadata line, and the
// result object as the last line.
func (r *report) print(w io.Writer, traced bool) {
	meta, _ := json.Marshal(map[string]any{"meta": r.meta})
	fmt.Fprintln(w, string(meta))
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	printMetrics(w, "end-to-end", r.endToEnd)
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %14.6g %s\n", "error_rate", errRate, "ratio")
	r.Metrics = r.endToEnd
	if traced {
		printMetrics(w, "per-layer", r.perLayer)
		r.Metrics = r.perLayer
	}
	out, _ := json.Marshal(r)
	fmt.Fprintln(w, string(out))
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// benchmark generates the inputs, times the set-up, runs the workload and
// checks its answers.
func benchmark(cfg config, stderr io.Writer) (*report, error) {
	in, err := generateInputs(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)

	// Extra set-ups run in child processes first, so each starts from an
	// empty heap and none leaves a resident copy of the dataset behind.
	var setups []setupTimes
	for i := 0; i < extraSetups; i++ {
		st, err := childSetup(cfg, in.dir, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
	}
	b, err := setup(cfg, in)
	if err != nil {
		return nil, err
	}
	defer b.close()
	setups = append(setups, b.setup)

	res, err := b.measure()
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, meta: b.metadata()}
	res.fill(rep, b, setups)
	if cfg.trace {
		res.tr.merge(b.setupTrace)
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.work, cfg.workload, cfg.seed)
		if err := res.tr.write(path); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "spans: "+path)
	}
	return rep, nil
}
