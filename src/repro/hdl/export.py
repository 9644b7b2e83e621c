"""Structural Verilog export.

Emits any :class:`Module` as a synthesizable Verilog-2001 module:
one continuous assignment per cell (rendered from the kind's row in
:data:`repro.hdl.cell.CELL_KINDS`), flip-flops as a clocked always
block with a synchronous reset, and the module's buses as vector
ports.  This makes
the reproduction's netlists consumable by real EDA flows — the closest
thing to closing the loop with the paper's 45 nm evaluation.

The output is deterministic for a given module (stable net numbering),
which the tests rely on.
"""

from repro.hdl.cell import cell_kind


def _verilog_template(kind):
    """The kind's cell-table expression as Verilog: ``({M} ^ x)`` is
    ``~(x)``, and a group's outer parentheses are dropped."""
    expr = cell_kind(kind).expr.replace("({M} ^ ", "~(")
    return expr[1:-1] if expr.startswith("(") else expr


def to_verilog(module, name=None):
    """Render ``module`` as a Verilog source string."""
    name = name or _identifier(module.name)
    has_regs = bool(module.registers)
    lines = []
    lines.append(f"// Generated by repro.hdl.export from module "
                 f"'{module.name}'")
    lines.append(f"// {len(module.gates)} cells, "
                 f"{len(module.registers)} flip-flops")
    ports = []
    if has_regs:
        ports.extend(["clk", "rst"])
    ports.extend(_identifier(n) for n in module.inputs)
    ports.extend(_identifier(n) for n in module.outputs)
    lines.append(f"module {name} (")
    lines.append("  " + ",\n  ".join(ports))
    lines.append(");")

    if has_regs:
        lines.append("  input clk;")
        lines.append("  input rst;")
    for io_name, bus in module.inputs.items():
        lines.append(f"  input  [{len(bus) - 1}:0] {_identifier(io_name)};")
    for io_name, bus in module.outputs.items():
        lines.append(f"  output [{len(bus) - 1}:0] {_identifier(io_name)};")
    lines.append("")

    reg_qs = {q for __, q, __, __ in module.registers}
    for net in range(module.n_nets):
        kind = "reg " if net in reg_qs else "wire"
        lines.append(f"  {kind} n{net};")
    lines.append("")

    for io_name, bus in module.inputs.items():
        for i, net in enumerate(bus):
            lines.append(f"  assign n{net} = {_identifier(io_name)}[{i}];")
    for net, value in sorted(module.constants.items()):
        lines.append(f"  assign n{net} = 1'b{value};")
    lines.append("")

    for kind, inputs, output, block in module.gates:
        expr = _verilog_template(kind)
        operands = [f"n{net}" for net in inputs]
        comment = f"  // {block}" if block else ""
        lines.append(f"  assign n{output} = "
                     f"{expr.format(*operands)};{comment}")
    lines.append("")

    if has_regs:
        lines.append("  always @(posedge clk) begin")
        lines.append("    if (rst) begin")
        for __, q, __, __ in module.registers:
            lines.append(f"      n{q} <= 1'b0;")
        lines.append("    end else begin")
        for d, q, stage, __ in module.registers:
            lines.append(f"      n{q} <= n{d};  // stage {stage}")
        lines.append("    end")
        lines.append("  end")
        lines.append("")

    for io_name, bus in module.outputs.items():
        packed = ", ".join(f"n{net}" for net in reversed(bus))
        lines.append(f"  assign {_identifier(io_name)} = {{{packed}}};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(module, path, name=None):
    """Write the Verilog rendering to ``path``; returns the path."""
    text = to_verilog(module, name=name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def to_verilog_testbench(module, stimulus, n_cycles, name=None,
                         dut_name=None):
    """Generate a self-checking Verilog testbench for ``module``.

    ``stimulus`` maps input bus names to per-cycle words (the levelized
    simulator's format).  Expected outputs are computed with the
    levelized simulator on the spot, so the testbench checks the
    *exported* netlist against this package's reference simulation —
    cycle-accurate for pipelined modules (registers reset to 0, exactly
    the levelized model's initial state).
    """
    from repro.hdl.sim.levelized import LevelizedSimulator

    run = LevelizedSimulator(module).run(stimulus, n_cycles)
    dut = dut_name or _identifier(module.name)
    name = name or f"{dut}_tb"
    has_regs = bool(module.registers)

    lines = [f"// Self-checking testbench for {dut} "
             f"({n_cycles} vectors)", "`timescale 1ns/1ps",
             f"module {name};"]
    for io_name, bus in module.inputs.items():
        lines.append(f"  reg  [{len(bus) - 1}:0] {_identifier(io_name)};")
    for io_name, bus in module.outputs.items():
        lines.append(f"  wire [{len(bus) - 1}:0] {_identifier(io_name)};")
    if has_regs:
        lines.append("  reg clk = 0;")
        lines.append("  reg rst = 1;")
        lines.append("  always #5 clk = ~clk;")
    lines.append("  integer errors = 0;")
    lines.append("")

    ports = []
    if has_regs:
        ports.append(".clk(clk)")
        ports.append(".rst(rst)")
    for io_name in module.inputs:
        ident = _identifier(io_name)
        ports.append(f".{ident}({ident})")
    for io_name in module.outputs:
        ident = _identifier(io_name)
        ports.append(f".{ident}({ident})")
    lines.append(f"  {dut} dut ({', '.join(ports)});")
    lines.append("")
    lines.append("  initial begin")
    out_words = {io_name: run.bus_words(bus)
                 for io_name, bus in module.outputs.items()}
    if has_regs:
        # Synchronous reset through one clock edge loads the all-zero
        # register state the levelized model starts from; vectors are
        # then applied right after each posedge and outputs sampled at
        # the following negedge (settled, before the state advances).
        lines.append("    @(posedge clk); #1; rst = 0;")
    for t in range(n_cycles):
        for io_name, bus in module.inputs.items():
            words = stimulus[io_name]
            word = words[t] if t < len(words) else 0
            lines.append(f"    {_identifier(io_name)} = "
                         f"{len(bus)}'h{word:X};")
        settle = "@(negedge clk);" if has_regs else "#20;"
        lines.append(f"    {settle}")
        for io_name, bus in module.outputs.items():
            expect = out_words[io_name][t]
            ident = _identifier(io_name)
            lines.append(
                f"    if ({ident} !== {len(bus)}'h{expect:X}) begin "
                f"errors = errors + 1; "
                f"$display(\"FAIL t={t} {ident}=%h expect={expect:X}\", "
                f"{ident}); end")
        if has_regs:
            lines.append("    @(posedge clk); #1;")
    lines.append("    if (errors == 0) $display(\"PASS: all "
                 f"{n_cycles} vectors\");")
    lines.append("    else $display(\"FAILED: %0d mismatches\", errors);")
    lines.append("    $finish;")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _identifier(name):
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    ident = "".join(out)
    if not ident or ident[0].isdigit():
        ident = "m_" + ident
    return ident
