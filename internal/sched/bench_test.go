package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"sparkgo/internal/sched"
)

// BenchmarkSchedule schedules a straight-line chain of n dependent adds
// (t = t + b) in both regimes: the microprocessor-block configuration
// and the classical baseline. List scheduling should grow about
// linearly with n.
func BenchmarkSchedule(b *testing.B) {
	regimes := []struct {
		name string
		cfg  func() sched.Config
	}{
		{"chain-unlimited", sched.DefaultConfig},
		{"sequential-classical", func() sched.Config {
			cfg := sched.DefaultConfig()
			cfg.Mode, cfg.Resources = sched.ModeSequential, sched.Classical()
			return cfg
		}},
	}
	for _, n := range []int{1000, 2000, 4000} {
		src := "uint8 b;\nuint8 out;\nvoid main() {\n  uint8 t;\n" +
			strings.Repeat("  t = t + b;\n", n) + "  out = t;\n}\n"
		g := prepare(b, src)
		for _, r := range regimes {
			b.Run(fmt.Sprintf("%s/n=%d", r.name, n), func(b *testing.B) {
				cfg := r.cfg()
				for b.Loop() {
					if _, err := sched.Schedule(g, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
