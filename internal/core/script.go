package core

import (
	"sparkgo/internal/delay"
	"sparkgo/internal/script"
)

// FromScript converts a parsed synthesis script into synthesizer options.
// A script that lists passes replaces the preset pipeline with exactly
// that sequence of pass specs (the paper's designer-in-the-loop
// workflow, §4), so a scripted run keys and caches like any other
// explicit pass list.
func FromScript(s *script.Script) Options {
	opt := Options{}
	if s.Preset == script.Classical {
		opt.Preset = ClassicalASIC
	}
	if s.Clock > 0 {
		opt.Model = delay.Default().WithClock(s.Clock)
	}
	opt.Passes = s.Passes
	opt.CustomRounds = s.Rounds
	return opt
}
