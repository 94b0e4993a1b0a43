package experiments

import "sort"

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) error
}

// Registry lists every experiment by id.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "RDDs of selected benchmarks (paper Fig. 1)", Fig1},
		{"fig2", "DRRIP misses vs epsilon (paper Fig. 2)", Fig2},
		{"fig4", "Static PDP vs DRRIP (paper Fig. 4)", Fig4},
		{"fig5a", "Access/occupancy breakdown (paper Fig. 5a)", Fig5a},
		{"fig5b", "xalancbmk window RDDs (paper Fig. 5b)", Fig5b},
		{"fig6", "Hit-rate model validation (paper Fig. 6)", Fig6},
		{"fig9", "PDP parameter exploration (paper Fig. 9)", Fig9},
		{"fig10", "Single-core policies vs DIP (paper Fig. 10)", Fig10},
		{"fig11", "Phase adaptation (paper Fig. 11)", Fig11},
		{"fig12", "Multi-core partitioning (paper Fig. 12)", Fig12},
		{"tab2", "Optimal PD distribution (paper Table 2)", Tab2},
		{"overhead", "Hardware overhead (paper Sec. 6.2)", Overhead},
		{"sec63", "429.mcf insertion study (paper Sec. 6.3)", Sec63},
		{"sec65", "Prefetch-aware PDP (paper Sec. 6.5)", Sec65},
		{"pdproc", "PD-compute processor (paper Sec. 3)", PDProc},
		{"optgap", "Belady-OPT headroom recovery (extension)", OptGap},
		{"classpdp", "Per-PC-class PDP (paper Sec. 6.3 proposal, extension)", ClassPDPExp},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
