"""A miniature PTX-like IR (for the Table III instruction-count study).

Just enough structure for the paper's example: loads/stores, immediate
moves, predicate-setting compares, guarded branches, and labels.  Labels
are pseudo-instructions and are excluded from instruction counts, matching
how PTX listings are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import CompilerError

#: compare ops understood by setp
CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")

#: three-operand arithmetic ops (dst <- src0 <op> src1)
ARITH_OPS = ("add", "sub", "mul", "div")


@dataclass(frozen=True)
class Instr:
    """One instruction.

    ``op`` is one of: ``ld`` (dst <- [src0]), ``st`` ([src0] <- src1),
    ``mov`` (dst <- src0), ``setp`` (dst <- src0 <cmp> src1),
    ``and_pred`` (dst <- src0 & src1), ``bra`` (jump to label src0),
    ``label`` (pseudo), ``ret``.
    ``guard`` predicates execution: ``"p0"`` or ``"!p0"``.
    """

    op: str
    dst: str | None = None
    srcs: tuple = ()
    cmp: str | None = None
    guard: str | None = None

    def __post_init__(self):
        if self.op == "setp" and self.cmp not in CMP_OPS:
            raise CompilerError(f"setp needs a compare op, got {self.cmp!r}")

    @property
    def is_real(self) -> bool:
        """Counts toward the instruction count (labels don't)."""
        return self.op not in ("label",)

    @property
    def is_pure_arith(self) -> bool:
        return self.op in ARITH_OPS

    def with_guard(self, guard: str | None) -> "Instr":
        return replace(self, guard=guard)

    def render(self) -> str:
        g = f"@{self.guard} " if self.guard else ""
        if self.op == "label":
            return f"{self.srcs[0]}:"
        if self.op == "ld":
            return f"{g}ld.global {self.dst}, [{self.srcs[0]}]"
        if self.op == "st":
            return f"{g}st.global [{self.srcs[0]}], {self.srcs[1]}"
        if self.op == "mov":
            return f"{g}mov {self.dst}, {_fmt(self.srcs[0])}"
        if self.op == "setp":
            return (f"{g}setp.{self.cmp} {self.dst}, "
                    f"{_fmt(self.srcs[0])}, {_fmt(self.srcs[1])}")
        if self.op == "and_pred":
            return f"{g}and.pred {self.dst}, {self.srcs[0]}, {self.srcs[1]}"
        if self.op in ARITH_OPS:
            return (f"{g}{self.op} {self.dst}, "
                    f"{_fmt(self.srcs[0])}, {_fmt(self.srcs[1])}")
        if self.op == "bra":
            return f"{g}bra {self.srcs[0]}"
        if self.op == "ret":
            return f"{g}ret"
        raise CompilerError(f"unknown op {self.op!r}")


def _fmt(v) -> str:
    return str(v)


def is_imm(v) -> bool:
    return isinstance(v, (int, float))


@dataclass
class Program:
    """A straight-line kernel body with forward branches."""

    name: str
    instrs: list[Instr] = field(default_factory=list)

    def count(self) -> int:
        """Number of real (counted) instructions."""
        return sum(1 for i in self.instrs if i.is_real)

    def render(self) -> str:
        lines = [f".entry {self.name}"]
        for i in self.instrs:
            indent = "" if i.op == "label" else "    "
            lines.append(indent + i.render())
        return "\n".join(lines)

    def copy(self) -> "Program":
        return Program(self.name, list(self.instrs))

    def defs_of(self, reg: str) -> list[int]:
        return [k for k, i in enumerate(self.instrs)
                if i.dst == reg and i.op != "st"]

    def uses_of(self, reg: str) -> list[int]:
        out = []
        for k, i in enumerate(self.instrs):
            used = any(s == reg for s in i.srcs)
            guarded = i.guard is not None and i.guard.lstrip("!") == reg
            if used or guarded:
                out.append(k)
        return out
