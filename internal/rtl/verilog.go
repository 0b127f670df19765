package rtl

import (
	"fmt"
	"sort"
	"strings"

	"sparkgo/internal/ir"
)

// EmitVerilog renders the module as synthesizable Verilog-2001 (provided
// alongside the paper's VHDL for downstream flows that prefer it). The
// structure mirrors EmitVHDL: continuous assignments for the combinational
// datapath, one clocked always block holding the FSM and every register.
func EmitVerilog(m *Module) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	name := sanitize(m.Name)
	w("// Generated by sparkgo: Spark-style high-level synthesis\n")
	w("// Design: %s  (states: %d)\n", m.Name, m.NumStates)

	var inputs, outputs []*Signal
	for _, s := range m.Signals {
		switch s.Kind {
		case SigInput:
			inputs = append(inputs, s)
		case SigReg:
			if isPortReg(m, s) {
				outputs = append(outputs, s)
			}
		}
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Name < inputs[j].Name })
	sort.Slice(outputs, func(i, j int) bool { return outputs[i].Name < outputs[j].Name })

	w("module %s(\n  input wire clk,\n  input wire rst,\n  input wire start,\n  output reg done", name)
	for _, s := range inputs {
		w(",\n  input wire [%d:0] %s", s.Type.Width()-1, sanitize(s.Name))
	}
	for _, s := range outputs {
		w(",\n  output wire [%d:0] %s_out", s.Type.Width()-1, sanitize(s.Name))
	}
	w("\n);\n\n")

	stateBits := 1
	for (1 << stateBits) < m.NumStates+1 {
		stateBits++
	}
	w("  reg [%d:0] state;\n", stateBits-1)
	w("  localparam S_IDLE = %d;\n\n", m.NumStates)

	for _, s := range m.Signals {
		switch s.Kind {
		case SigReg:
			w("  reg  [%d:0] %s;\n", s.Type.Width()-1, sanitize(s.Name))
		case SigWire:
			w("  wire [%d:0] %s;\n", s.Type.Width()-1, sanitize(s.Name))
		}
	}
	w("\n")
	for _, s := range outputs {
		w("  assign %s_out = %s;\n", sanitize(s.Name), sanitize(s.Name))
	}
	w("\n  // combinational datapath\n")
	for _, g := range m.Gates {
		w("  assign %s = %s;\n", sanitize(g.Out.Name), verilogGate(g))
	}

	w("\n  // controller and registers\n")
	w("  always @(posedge clk) begin\n")
	w("    if (rst) begin\n      state <= S_IDLE;\n      done <= 1'b0;\n")
	for _, s := range m.Signals {
		if s.Kind == SigReg {
			w("      %s <= %s;\n", sanitize(s.Name), verilogConst(s.Init, s.Type))
		}
	}
	w("    end else if (state == S_IDLE) begin\n")
	w("      if (start) begin state <= 0; done <= 1'b0; end\n")
	w("    end else begin\n      case (state)\n")
	for st := 0; st < m.NumStates; st++ {
		w("        %d: begin\n", st)
		for _, rw := range m.RegWrites {
			if rw.State == st {
				w("          %s <= %s;\n", sanitize(rw.Reg.Name), verilogRef(rw.Value))
			}
		}
		first := true
		for _, tr := range m.Trans {
			if tr.From != st {
				continue
			}
			target := fmt.Sprintf("state <= %d;", tr.To)
			if tr.To == -1 {
				target = "begin state <= S_IDLE; done <= 1'b1; end"
			}
			if tr.Cond == nil {
				if first {
					w("          %s\n", target)
				} else {
					w("          else %s\n", target)
				}
				break
			}
			val := "1'b1"
			if !tr.CondValue {
				val = "1'b0"
			}
			if first {
				w("          if (%s == %s) %s\n", verilogRef(tr.Cond), val, target)
				first = false
			} else {
				w("          else if (%s == %s) %s\n", verilogRef(tr.Cond), val, target)
			}
		}
		w("        end\n")
	}
	w("        default: state <= S_IDLE;\n")
	w("      endcase\n    end\n  end\n\nendmodule\n")
	return b.String()
}

func verilogConst(val int64, t *ir.Type) string {
	w := t.Width()
	bits := uint64(val) & t.Mask()
	return fmt.Sprintf("%d'd%d", w, bits)
}

func verilogRef(s *Signal) string {
	if s.Kind == SigConst {
		return verilogConst(s.Const, s.Type)
	}
	return sanitize(s.Name)
}

func verilogGate(g *Gate) string {
	r := verilogRef
	outW := g.Out.Type.Width()
	signedPair := func(a, b *Signal) (string, string) {
		return fmt.Sprintf("$signed(%s)", r(a)), fmt.Sprintf("$signed(%s)", r(b))
	}
	switch g.Kind {
	case GateCopy:
		if g.Out.Type.Width() > g.In[0].Type.Width() &&
			g.In[0].Type.IsInt() && g.In[0].Type.Signed {
			return fmt.Sprintf("%d'(%s)", outW, fmt.Sprintf("$signed(%s)", r(g.In[0])))
		}
		return r(g.In[0])
	case GateUn:
		switch g.Un {
		case ir.OpNeg:
			return fmt.Sprintf("-%s", r(g.In[0]))
		case ir.OpNot:
			return fmt.Sprintf("~%s", r(g.In[0]))
		case ir.OpLNot:
			return fmt.Sprintf("(%s == 0)", r(g.In[0]))
		}
	case GateMux:
		return fmt.Sprintf("(%s != 0) ? %s : %s", r(g.In[0]), r(g.In[1]), r(g.In[2]))
	case GateArrayRead:
		// Nested ternary selection network.
		expr := fmt.Sprintf("%d'd0", outW)
		for k := len(g.In) - 1; k >= 1; k-- {
			expr = fmt.Sprintf("(%s == %d) ? %s : (%s)", r(g.In[0]), k-1, r(g.In[k]), expr)
		}
		return expr
	case GateBin:
		a, b := g.In[0], g.In[1]
		switch g.Bin {
		case ir.OpAdd:
			return fmt.Sprintf("%s + %s", r(a), r(b))
		case ir.OpSub:
			return fmt.Sprintf("%s - %s", r(a), r(b))
		case ir.OpMul:
			return fmt.Sprintf("%s * %s", r(a), r(b))
		case ir.OpDiv:
			if g.UnsignedOps {
				return fmt.Sprintf("(%s == 0) ? %d'd0 : (%s / %s)", r(b), outW, r(a), r(b))
			}
			sa, sb := signedPair(a, b)
			return fmt.Sprintf("(%s == 0) ? %d'd0 : (%s / %s)", r(b), outW, sa, sb)
		case ir.OpRem:
			return fmt.Sprintf("(%s == 0) ? %d'd0 : (%s %% %s)", r(b), outW, r(a), r(b))
		case ir.OpAnd:
			return fmt.Sprintf("%s & %s", r(a), r(b))
		case ir.OpOr:
			return fmt.Sprintf("%s | %s", r(a), r(b))
		case ir.OpXor:
			return fmt.Sprintf("%s ^ %s", r(a), r(b))
		case ir.OpShl:
			return fmt.Sprintf("%s << %s", r(a), r(b))
		case ir.OpShr:
			if g.UnsignedOps {
				return fmt.Sprintf("%s >> %s", r(a), r(b))
			}
			return fmt.Sprintf("$signed(%s) >>> %s", r(a), r(b))
		case ir.OpEq:
			return fmt.Sprintf("%s == %s", r(a), r(b))
		case ir.OpNe:
			return fmt.Sprintf("%s != %s", r(a), r(b))
		case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			sym := map[ir.BinOp]string{ir.OpLt: "<", ir.OpLe: "<=", ir.OpGt: ">", ir.OpGe: ">="}[g.Bin]
			if g.UnsignedOps {
				return fmt.Sprintf("%s %s %s", r(a), sym, r(b))
			}
			sa, sb := signedPair(a, b)
			return fmt.Sprintf("%s %s %s", sa, sym, sb)
		case ir.OpLAnd:
			return fmt.Sprintf("(%s != 0) && (%s != 0)", r(a), r(b))
		case ir.OpLOr:
			return fmt.Sprintf("(%s != 0) || (%s != 0)", r(a), r(b))
		}
	}
	return "/* ? */"
}
