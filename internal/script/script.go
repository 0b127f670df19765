// Package script parses Spark-style synthesis scripts: the designer-facing
// control the paper describes in §4 ("it also allows the designer to
// control the various passes and the degree of parallelization through
// script files. For example, the designer may specify which loops to
// unroll and by how much").
//
// Grammar (one command per line, '#' starts a comment):
//
//	preset microprocessor | classical
//	clock <period-gu>              # target cycle time (0 = unconstrained)
//	normalize-while
//	inline                         # inline every call
//	drop-uncalled
//	speculate
//	unroll all full                # fully unroll every loop
//	unroll <label> full            # fully unroll one loop
//	unroll <label> <factor>        # partial unroll (loop kept)
//	constprop | constfold | copyprop | cse | dce
//	rounds <n>                     # iterate the pass list up to n rounds
//
// A script that lists any pass replaces the preset's default pipeline with
// exactly the listed sequence. Each pass command is kept as an
// internal/pass spec string — the same form core.Options.Passes and the
// exploration engine use — and is validated against the registry at parse
// time, so every registered pass name (including aliases like "const-prop"
// and the bounded "unroll all full <max>") is accepted and a bad command
// fails on its line.
package script

import (
	"fmt"
	"strconv"
	"strings"

	"sparkgo/internal/pass"
)

// Preset mirrors core.Preset without importing it (core imports script's
// sibling packages; keep the dependency one-way).
type Preset int

const (
	// Microprocessor is the paper's unlimited-resource chaining regime.
	Microprocessor Preset = iota
	// Classical is the resource-constrained sequential baseline.
	Classical
)

// Script is a parsed synthesis script.
type Script struct {
	Preset Preset
	Clock  float64
	Rounds int
	// Passes is the ordered pass list in internal/pass spec syntax.
	Passes []string
	// Lines keeps the accepted source lines for reports.
	Lines []string
}

// Parse parses script text.
func Parse(text string) (*Script, error) {
	s := &Script{Preset: Microprocessor, Rounds: 0}
	for ln, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		if err := s.apply(cmd, args); err != nil {
			return nil, fmt.Errorf("script line %d: %w", ln+1, err)
		}
		s.Lines = append(s.Lines, line)
	}
	return s, nil
}

func (s *Script) apply(cmd string, args []string) error {
	switch cmd {
	case "preset":
		if len(args) != 1 {
			return fmt.Errorf("preset needs one argument")
		}
		switch args[0] {
		case "microprocessor", "micro", "mp":
			s.Preset = Microprocessor
		case "classical", "asic":
			s.Preset = Classical
		default:
			return fmt.Errorf("unknown preset %q", args[0])
		}
	case "clock":
		if len(args) != 1 {
			return fmt.Errorf("clock needs one argument")
		}
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad clock period %q", args[0])
		}
		s.Clock = v
	case "rounds":
		if len(args) != 1 {
			return fmt.Errorf("rounds needs one argument")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("bad round count %q", args[0])
		}
		s.Rounds = n
	default:
		// Every other command is a pass spec checked against the
		// registry (internal/pass), so scripts accept exactly the pass
		// names the synthesizer and exploration engine use.
		spec := strings.Join(append([]string{cmd}, args...), " ")
		if _, err := pass.Build(spec); err != nil {
			return err
		}
		s.Passes = append(s.Passes, spec)
	}
	return nil
}
