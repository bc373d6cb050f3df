r"""Calculation buffer: Table III of the paper.

For every architectural register the buffer tracks

* ``fva`` — the *fixed value*: the exact value of the register when its whole
  dataflow history depends only on immediates; ``None`` encodes the paper's
  ``NA`` ("depends on a loaded/unknown variable").
* ``sc`` — the *scale*: the stride with which the register's value can move
  when the unknown variables in its history change by one step.

Rules implemented (Table III; ``+`` also covers ``-``, ``x`` also covers
``<<``/``>>``):

=====================  =======================  =======================
Instruction            ``fva_d``                ``sc_d``
=====================  =======================  =======================
``li rd, imm``         ``imm``                  1
``load rd, imm(rs)``   NA                       1
``add rd, rs, imm``    NA if fva(rs) NA         sc(rs)
\                      fva(rs)+imm otherwise    1
``add rd, rs0, rs1``   both valid: sum          1  (see note)
\                      one NA: NA               sc of the NA-side register
\                      both NA: NA              min(sc0, sc1)
``mul rd, rs, imm``    NA if fva(rs) NA         sc(rs) * imm
\                      fva(rs)*imm otherwise    1
``mul rd, rs0, rs1``   both valid: product      1  (see note)
\                      rs0 NA: NA               sc0 * fva1
\                      rs1 NA: NA               fva0 * sc1
\                      both NA: NA              sc0 * sc1
otherwise              NA                       1
=====================  =======================  =======================

Note: the paper prints the two both-valid result scales as ``NA`` while
every other constant-producing row uses ``1``.  Since prefetching only
triggers for ``sc`` larger than a cacheline, ``NA`` and ``1`` are
behaviourally identical; we canonicalise to ``1`` (documented in DESIGN.md).

Scales are kept positive and saturated at the page size (the hardware uses
16-bit registers because prefetching never crosses a page — Sec. V-E).

Each ALU rule is written once, as a source template in
:mod:`repro.isa.alu`.  :class:`CalculationBuffer` applies the templates'
track part; the timing core (:mod:`repro.cpu.core`) compiles the same
templates into its per-instruction handlers and superblocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.alu import ALU_RULES, alu_source, compile_function
from repro.isa.decode import decode_instruction
from repro.isa.instructions import Instruction
from repro.isa.registers import NUM_REGISTERS


@dataclass
class RegisterTrack:
    """Tracking state for one register: ``(fva, sc)``."""

    fva: int | None = None
    sc: int = 1

    def reset(self) -> None:
        self.fva = None
        self.sc = 1


class CalculationBuffer:
    """Per-register ``(fva, sc)`` state plus the Table III update rules."""

    def __init__(
        self, num_registers: int = NUM_REGISTERS, scale_cap: int = 4096
    ) -> None:
        self.scale_cap = scale_cap
        self._tracks = [RegisterTrack() for _ in range(num_registers)]

    # -- queries --------------------------------------------------------------

    def track(self, reg: int) -> RegisterTrack:
        return self._tracks[reg]

    def scale_of(self, reg: int) -> int:
        """The scale used by the Scale Tracker for a load based on ``reg``."""
        return self._tracks[reg].sc

    def fva_of(self, reg: int) -> int | None:
        return self._tracks[reg].fva

    def reset(self) -> None:
        for track in self._tracks:
            track.reset()

    # -- update rules -----------------------------------------------------------
    # The ALU rules are the templates of :mod:`repro.isa.alu` -- the code the
    # timing core runs -- applied to the tracks alone.

    def load_immediate(self, rd: int, imm: int) -> None:
        """``li rd, imm``: fva <- imm, sc <- 1."""
        self._apply(Instruction("li", rd=rd, imm=imm))

    def load_from_memory(self, rd: int) -> None:
        """``load rd, imm(rs)``: destination becomes an unknown variable."""
        self._tracks[rd].reset()

    def move(self, rd: int, rs: int) -> None:
        """``mov rd, rs`` == ``add rd, rs, 0`` under Table III."""
        self._apply(Instruction("mov", rd=rd, rs0=rs))

    def other(self, rd: int) -> None:
        """The "Otherwise" rule: reinitialise the destination."""
        self._tracks[rd].reset()

    def alu(
        self,
        op: str,
        rd: int,
        rs0: int,
        rs1: int | None = None,
        imm: int | None = None,
    ) -> None:
        """Apply the Table III rule for one ALU instruction.

        Exactly one of ``rs1`` / ``imm`` must be provided.  ``and``/``or``/
        ``xor`` fall into the "Otherwise" rule.
        """
        self._apply(Instruction(op, rd=rd, rs0=rs0, rs1=rs1, imm=imm))

    def _apply(self, instruction: Instruction) -> None:
        d = decode_instruction(instruction, 0)
        _TRACK_RULES[d[0]](self._tracks, d, self.scale_cap)


def _track_rule(kind: int) -> Callable[..., None]:
    """The Table III part of ``kind``'s ALU template as ``f(tracks, d, cap)``."""
    fields = ALU_RULES[kind].fields
    rule = alu_source(kind, fields, registers=False)
    body = f"_, {', '.join(fields)} = d\n{rule}" if fields else rule
    return compile_function(f"track_rule_{kind}", "tracks, d, cap", body, {})


_TRACK_RULES = {kind: _track_rule(kind) for kind in ALU_RULES}
