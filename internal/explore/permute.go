package explore

import (
	"strings"

	"sparkgo/internal/core"
)

// PermutePasses enumerates distinct orderings of a pass-spec list — the
// pass-order axis of the design space. Orderings are generated in
// lexicographic index order (so the identity ordering comes first and
// the sequence is deterministic) and de-duplicated when specs repeat.
// The returned slices are freshly allocated and safe to hand to
// Config.Passes.
func PermutePasses(specs []string) [][]string {
	if len(specs) == 0 {
		return nil
	}
	var out [][]string
	seen := map[string]bool{}
	for _, idx := range permutations(len(specs)) {
		order := make([]string, len(idx))
		for i, j := range idx {
			order[i] = specs[j]
		}
		if key := strings.Join(order, "\x00"); !seen[key] {
			seen[key] = true
			out = append(out, order)
		}
	}
	return out
}

// PassOrderGrid builds one microprocessor-regime configuration per pass
// ordering at scale n — the sweep space of the pass-order experiment.
func PassOrderGrid(n int, orders [][]string) []Config {
	space := make([]Config, 0, len(orders))
	for _, order := range orders {
		space = append(space, Config{
			N: n, Preset: core.MicroprocessorBlock, Passes: order,
		})
	}
	return space
}
