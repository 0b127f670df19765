package pass

import (
	"fmt"
	"strconv"
	"strings"

	"sparkgo/internal/transform"
)

// factory constructs a pass from space-separated spec arguments, e.g. the
// "unroll" factory receives ["all", "full"] for the spec "unroll all full".
type factory func(args []string) (transform.Pass, error)

// registry maps each pass name in the synthesis-script grammar to its
// factory; aliases share a factory.
var registry = map[string]factory{
	"normalize-while": noArgs(transform.NormalizeWhile),
	"normalize":       noArgs(transform.NormalizeWhile),
	"inline": func(args []string) (transform.Pass, error) {
		if len(args) == 0 {
			return transform.Inline(nil), nil
		}
		return transform.Inline(args), nil
	},
	"drop-uncalled": noArgs(transform.DropUncalledFuncs),
	"speculate":     noArgs(transform.Speculate),
	"unroll":        buildUnroll,
	"constprop":     noArgs(transform.ConstProp),
	"const-prop":    noArgs(transform.ConstProp),
	"constfold":     noArgs(transform.ConstFold),
	"const-fold":    noArgs(transform.ConstFold),
	"copyprop":      noArgs(transform.CopyProp),
	"copy-prop":     noArgs(transform.CopyProp),
	"cse":           noArgs(transform.CSE),
	"dce":           noArgs(transform.DCE),
}

// Build constructs one pass from a spec string: a pass name followed by
// space-separated arguments, exactly the synthesis-script grammar —
// "inline", "cse", "unroll all full", "unroll L0 4".
func Build(spec string) (transform.Pass, error) {
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		return nil, fmt.Errorf("pass: empty spec")
	}
	f, ok := registry[fields[0]]
	if !ok {
		return nil, fmt.Errorf("pass: unknown pass %q", fields[0])
	}
	p, err := f(fields[1:])
	if err != nil {
		return nil, fmt.Errorf("pass %s: %w", fields[0], err)
	}
	return p, nil
}

// BuildAll resolves an ordered spec list into passes.
func BuildAll(specs []string) ([]transform.Pass, error) {
	out := make([]transform.Pass, 0, len(specs))
	for _, s := range specs {
		p, err := Build(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func noArgs(mk func() transform.Pass) factory {
	return func(args []string) (transform.Pass, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("takes no arguments, got %v", args)
		}
		return mk(), nil
	}
}

// buildUnroll parses the script grammar plus an optional trip-count bound:
//
//	unroll all full [maxIter]     fully unroll every loop
//	unroll <label> full           fully unroll one labeled loop
//	unroll <label> <factor>       partial unroll (loop kept)
func buildUnroll(args []string) (transform.Pass, error) {
	if len(args) < 2 || len(args) > 3 {
		return nil, fmt.Errorf("needs <label|all> <full|factor> [max]")
	}
	label, amount := args[0], args[1]
	if amount == "full" {
		maxIter := 0
		if len(args) == 3 {
			m, err := strconv.Atoi(args[2])
			if err != nil || m < 1 {
				return nil, fmt.Errorf("bad unroll bound %q", args[2])
			}
			maxIter = m
		}
		if label == "all" {
			return transform.UnrollFull(nil, maxIter), nil
		}
		return transform.UnrollFull([]string{label}, maxIter), nil
	}
	if len(args) == 3 {
		return nil, fmt.Errorf("bound only applies to full unrolling")
	}
	factor, err := strconv.Atoi(amount)
	if err != nil || factor < 2 {
		return nil, fmt.Errorf("bad unroll factor %q", amount)
	}
	if label == "all" {
		return nil, fmt.Errorf("partial unroll needs a loop label")
	}
	return transform.UnrollBy(label, factor), nil
}
