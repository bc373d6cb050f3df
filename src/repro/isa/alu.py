"""Core-local ALU semantics, written once per decode kind as source templates.

Each ALU decode kind (:mod:`repro.isa.decode`) has one :class:`AluRule`:
the register result as a Python expression and the paper's Table III
calculation-buffer update as a few statements over the register tracks
(``fva``/``sc``; see :mod:`repro.core.calc`).  Nothing executes these
strings directly.  Three consumers generate code from them:

* :class:`repro.cpu.core.Core`'s per-instruction handlers, with operands
  read from the decode tuple (the speculative path steps one op at a time);
* its superblocks: a straight-line run of ALU ops compiled into one
  function, with every operand inlined as a constant;
* :class:`repro.core.calc.CalculationBuffer`, which applies the track
  part alone.

Templates name their operands ``{rd}``, ``{rs0}``, ``{rs1}`` and ``{imm}``
and read these locals: ``values`` (the register file's value list),
``tracks`` (the calculation buffer's track list), ``cap`` (the scale clamp,
the page size) and the global ``WORD_MASK``.  Register ``r0`` reads as
zero and ignores writes, but its *track* is updated like any other: that
is the behaviour the golden runs pin.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Sequence

from repro.isa.decode import (
    K_ADD_RI,
    K_ADD_RR,
    K_AND_RI,
    K_AND_RR,
    K_LI,
    K_MOV,
    K_MUL_RI,
    K_MUL_RR,
    K_NOP,
    K_OR_RI,
    K_OR_RR,
    K_SLL_RI,
    K_SLL_RR,
    K_SRL_RI,
    K_SRL_RR,
    K_SUB_RR,
    K_XOR_RI,
    K_XOR_RR,
)
from repro.isa.registers import WORD_MASK


class AluRule(NamedTuple):
    """One ALU kind: decode-tuple fields, result expression, Table III update."""

    fields: tuple[str, ...]
    value: str | None
    track: str


# The scale clamp shared by every "x" rule: abs, at least 1, at most cap.
_CLAMP = """\
sc = abs({scale})
dst.sc = cap if sc > cap else (sc or 1)"""

# Table III "+" row (also "-"): sums of fixed values stay fixed; a scale
# survives from the unknown side, the smaller one when both are unknown.
_PLUS_RR = """\
src = tracks[{{rs0}}]
other = tracks[{{rs1}}]
dst = tracks[{{rd}}]
sfva = src.fva
ofva = other.fva
if sfva is not None and ofva is not None:
    dst.fva = (sfva {op} ofva) & WORD_MASK
    dst.sc = 1
elif sfva is None and ofva is not None:
    dst.fva = None
    dst.sc = src.sc
elif sfva is not None:
    dst.fva = None
    dst.sc = other.sc
else:
    dst.fva = None
    ssc = src.sc
    osc = other.sc
    dst.sc = ssc if ssc < osc else osc"""

# Table III "+ imm": an immediate offset moves the value, not the scale.
_PLUS_RI = """\
src = tracks[{rs0}]
dst = tracks[{rd}]
sfva = src.fva
if sfva is None:
    dst.fva = None
    dst.sc = src.sc
else:
    dst.fva = (sfva + {imm}) & WORD_MASK
    dst.sc = 1"""

# Table III "x imm" (also "<< imm" / ">> imm"): the scale is multiplied.
_TIMES_RI = """\
src = tracks[{{rs0}}]
dst = tracks[{{rd}}]
sfva = src.fva
if sfva is None:
    dst.fva = None
{clamp}
else:
    dst.fva = (sfva {op} {{imm}}) & WORD_MASK
    dst.sc = 1"""

# Table III "x" between registers: an unknown side's scale times the other
# side's fixed value, or the product of both scales.
_MUL_RR = """\
src = tracks[{{rs0}}]
other = tracks[{{rs1}}]
dst = tracks[{{rd}}]
sfva = src.fva
ofva = other.fva
if sfva is not None and ofva is not None:
    dst.fva = (sfva * ofva) & WORD_MASK
    dst.sc = 1
elif sfva is None and ofva is not None:
    dst.fva = None
{src_times_fixed}
elif sfva is not None:
    dst.fva = None
{fixed_times_other}
else:
    dst.fva = None
{both_unknown}"""

# Shifts by a register: a known amount scales like "x"; shifting by an
# unknown amount conservatively reinitialises the destination.
_SHIFT_RR = """\
src = tracks[{{rs0}}]
other = tracks[{{rs1}}]
dst = tracks[{{rd}}]
sfva = src.fva
ofva = other.fva
if sfva is not None and ofva is not None:
    dst.fva = (sfva {op} (ofva & 0x3F)) & WORD_MASK
    dst.sc = 1
elif sfva is None and ofva is not None:
    dst.fva = None
{clamp}
else:
    dst.fva = None
    dst.sc = 1"""

# Table III "Otherwise": the destination is reinitialised.
_OTHERWISE = """\
dst = tracks[{rd}]
dst.fva = None
dst.sc = 1"""


def _clamp(scale: str) -> str:
    return _indent(_CLAMP.format(scale=scale))


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


_RR = ("rd", "rs0", "rs1")
_RI = ("rd", "rs0", "imm")

ALU_RULES: dict[int, AluRule] = {
    K_LI: AluRule(
        ("rd", "imm"), "{imm}", "dst = tracks[{rd}]\ndst.fva = {imm}\ndst.sc = 1"
    ),
    K_MOV: AluRule(
        ("rd", "rs0"),
        "values[{rs0}]",
        # mov rd, rs == add rd, rs, 0 under Table III.
        "src = tracks[{rs0}]\ndst = tracks[{rd}]\n"
        "if src.fva is None:\n    dst.fva = None\n    dst.sc = src.sc\n"
        "else:\n    dst.fva = src.fva\n    dst.sc = 1",
    ),
    K_ADD_RR: AluRule(
        _RR, "(values[{rs0}] + values[{rs1}]) & WORD_MASK", _PLUS_RR.format(op="+")
    ),
    K_SUB_RR: AluRule(
        _RR, "(values[{rs0}] - values[{rs1}]) & WORD_MASK", _PLUS_RR.format(op="-")
    ),
    # Covers ``sub rd, rs, imm`` too: decode negates the immediate.
    K_ADD_RI: AluRule(_RI, "(values[{rs0}] + {imm}) & WORD_MASK", _PLUS_RI),
    K_MUL_RR: AluRule(
        _RR,
        "(values[{rs0}] * values[{rs1}]) & WORD_MASK",
        _MUL_RR.format(
            src_times_fixed=_clamp("src.sc * ofva"),
            fixed_times_other=_clamp("sfva * other.sc"),
            both_unknown=_clamp("src.sc * other.sc"),
        ),
    ),
    # ``imm`` is the raw immediate: the clamp takes abs of ``sc * imm``.
    K_MUL_RI: AluRule(
        _RI,
        "(values[{rs0}] * {imm}) & WORD_MASK",
        _TIMES_RI.format(op="*", clamp=_clamp("src.sc * {imm}")),
    ),
    K_SLL_RR: AluRule(
        _RR,
        "(values[{rs0}] << (values[{rs1}] & 0x3F)) & WORD_MASK",
        _SHIFT_RR.format(op="<<", clamp=_clamp("src.sc << (ofva & 0x3F)")),
    ),
    K_SRL_RR: AluRule(
        _RR,
        "values[{rs0}] >> (values[{rs1}] & 0x3F)",
        _SHIFT_RR.format(op=">>", clamp=_clamp("src.sc >> (ofva & 0x3F)")),
    ),
    # Shift immediates arrive pre-reduced to 0..63.
    K_SLL_RI: AluRule(
        _RI,
        "(values[{rs0}] << {imm}) & WORD_MASK",
        _TIMES_RI.format(op="<<", clamp=_clamp("src.sc << {imm}")),
    ),
    K_SRL_RI: AluRule(
        _RI,
        "values[{rs0}] >> {imm}",
        _TIMES_RI.format(op=">>", clamp=_clamp("src.sc >> {imm}")),
    ),
    K_AND_RR: AluRule(_RR, "values[{rs0}] & values[{rs1}]", _OTHERWISE),
    K_OR_RR: AluRule(_RR, "values[{rs0}] | values[{rs1}]", _OTHERWISE),
    K_XOR_RR: AluRule(_RR, "values[{rs0}] ^ values[{rs1}]", _OTHERWISE),
    K_AND_RI: AluRule(_RI, "values[{rs0}] & {imm}", _OTHERWISE),
    K_OR_RI: AluRule(_RI, "values[{rs0}] | {imm}", _OTHERWISE),
    K_XOR_RI: AluRule(_RI, "values[{rs0}] ^ {imm}", _OTHERWISE),
    K_NOP: AluRule((), None, ""),
}

#: Kinds a superblock may contain: they touch only their own core's
#: registers and calculation buffer.
ALU_KINDS = frozenset(ALU_RULES)

#: Kinds charged ``CoreConfig.mul_cost``; every other ALU kind costs
#: ``base_cost``.
MUL_KINDS = frozenset({K_MUL_RR, K_MUL_RI})


def alu_source(
    kind: int, operands: Sequence[int | str], registers: bool = True
) -> str:
    """Statements for one ALU op of ``kind``.

    ``operands`` line up with the rule's ``fields``; each is an ``int``
    (inlined as a constant) or the name of a local holding it.  With
    ``registers=False`` only the Table III track update is emitted.
    """
    rule = ALU_RULES[kind]
    names = {
        field: repr(operand) if isinstance(operand, int) else operand
        for field, operand in zip(rule.fields, operands)
    }
    lines = []
    if registers and rule.value is not None:
        assign = f"values[{names['rd']}] = {rule.value.format(**names)}"
        rd = operands[0]
        if not isinstance(rd, int):
            lines.append(f"if {rd}:\n    {assign}")
        elif rd:
            lines.append(assign)
    if rule.track:
        lines.append(rule.track.format(**names))
    return "\n".join(lines)


def compile_function(
    name: str, params: str, body: str, namespace: dict[str, Any]
) -> Callable[..., Any]:
    """Compile ``def name(params): body`` into a function.

    The body's free names resolve in ``namespace`` plus ``WORD_MASK``; the
    template locals (``values``, ``tracks``, ``cap``) must be parameters
    or bound by ``body`` itself.
    """
    source = f"def {name}({params}):\n" + _indent(body or "pass") + "\n"
    scope = {"WORD_MASK": WORD_MASK, **namespace}
    exec(compile(source, f"<alu:{name}>", "exec"), scope)
    function: Callable[..., Any] = scope[name]
    return function
