package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Harness runs experiments and caches shared state (dataset environments
// and the Figure 9–14 overall-comparison runs, which several figures view
// from different angles, exactly as the paper reports one 16-job execution
// through six figures).
type Harness struct {
	Out io.Writer
	// Seed makes every workload reproducible.
	Seed int64
	// JobCount is the concurrent job count of the overall comparison
	// (the paper uses 16).
	JobCount int
	// Cores is the simulated core count (the paper's machine has 16).
	Cores int
	// JSON switches table output to machine-readable JSON.
	JSON bool

	envs    map[string]*GridEnv
	overall map[string]map[string]*SchemeResult // dataset -> scheme -> result
}

// New returns a harness writing tables to out.
func New(out io.Writer) *Harness {
	return &Harness{Out: out, Seed: 42, JobCount: 16, Cores: 8}
}

func (h *Harness) gridEnv(dataset string) (*GridEnv, error) {
	if h.envs == nil {
		h.envs = make(map[string]*GridEnv)
	}
	if e, ok := h.envs[dataset]; ok {
		return e, nil
	}
	e, err := NewGridEnv(dataset)
	if err != nil {
		return nil, err
	}
	h.envs[dataset] = e
	return e, nil
}

// experiment is one runnable table/figure reproduction.
type experiment struct {
	name string
	desc string
	run  func(h *Harness) ([]*Table, error)
}

var experiments = []experiment{
	{"fig2", "concurrent-job trace over one week", (*Harness).fig2},
	{"fig3", "motivation: concurrent jobs on plain GridGraph", (*Harness).fig3},
	{"fig4", "spatial/temporal similarity of the trace", (*Harness).fig4},
	{"table3", "preprocessing time, GridGraph vs GridGraph-M", (*Harness).table3},
	{"fig9", "total execution time, 16 jobs, S/C/M, 5 datasets", (*Harness).fig9},
	{"fig10", "execution time breakdown (processing vs data access)", (*Harness).fig10},
	{"fig11", "memory usage, S/C/M", (*Harness).fig11},
	{"fig12", "I/O overhead, S/C/M", (*Harness).fig12},
	{"fig13", "LLC miss rate, S/C/M", (*Harness).fig13},
	{"fig14", "volume of data swapped into the LLC", (*Harness).fig14},
	{"fig15", "real-trace replay throughput", (*Harness).fig15},
	{"fig16", "sensitivity to submission rate lambda", (*Harness).fig16},
	{"fig17", "BFS/SSSP root-distance sensitivity", (*Harness).fig17},
	{"fig18", "scheduling-strategy ablation", (*Harness).fig18},
	{"fig19", "scaling with the number of jobs", (*Harness).fig19},
	{"fig20", "scaling with the number of cores", (*Harness).fig20},
	{"fig21", "distributed scalability (PowerGraph/Chaos)", (*Harness).fig21},
	{"table4", "GraphChi/PowerGraph/Chaos integration", (*Harness).table4},
	{"ablation", "design-choice ablations (chunk size, fine sync)", (*Harness).ablation},
	{"openloop", "open-loop arrivals: online admission vs arrival rate", (*Harness).openloop},
	{"adaptive", "adaptive chunk re-labelling: static vs barrier-relabelled chunking on an attach/detach ramp", (*Harness).adaptive},
	{"replay", "week-in-the-life trace replay through the admission service on a virtual clock", (*Harness).replayExperiment},
	{"hotpath-serial", "chunk-apply hot-path throughput (Medges/s), the perf-gate variant", (*Harness).hotpathSerial},
	{"hotpath-serial-wcc", "serial hot path, homogeneous WCC jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("wcc") }},
	{"hotpath-serial-bfs", "serial hot path, homogeneous BFS jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("bfs") }},
	{"hotpath-serial-sssp", "serial hot path, homogeneous SSSP jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("sssp") }},
	{"hotpath-serial-kcore", "serial hot path, homogeneous k-core jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("kcore") }},
	{"hotpath-serial-labelprop", "serial hot path, homogeneous label-propagation jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("labelprop") }},
	{"hotpath-serial-ppr", "serial hot path, homogeneous PPR jobs (per-algorithm gate)", func(h *Harness) ([]*Table, error) { return h.hotpathSerialAlgo("ppr") }},
	{"serve-http", "Figure-2 trace through the HTTP daemon over a loopback socket", (*Harness).serveHTTP},
	{"durability", "WAL overhead, group-commit coalescing, checkpoint compression + crash recovery", (*Harness).durability},
}

// Experiments lists runnable experiment names in paper order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range experiments {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment by name and prints its tables.
func (h *Harness) Run(name string) error {
	tables, err := h.Tables(name)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if h.JSON {
			enc := json.NewEncoder(h.Out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(t); err != nil {
				return err
			}
		} else {
			t.Fprint(h.Out)
		}
	}
	return nil
}

// Tables executes one experiment and returns its result tables without
// printing, for programmatic consumers.
func (h *Harness) Tables(name string) ([]*Table, error) {
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		tables, err := e.run(h)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", name, err)
		}
		return tables, nil
	}
	known := Experiments()
	sort.Strings(known)
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", name, known)
}

// RunAll executes every experiment in paper order.
func (h *Harness) RunAll() error {
	for _, e := range experiments {
		if err := h.Run(e.name); err != nil {
			return err
		}
	}
	return nil
}
