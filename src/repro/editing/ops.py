"""Editing operations — the alphabet ``E(Σ)`` (paper Section 2).

An editing script is a tree over

    ``E(Σ) = {Ins(a), Nop(a), Del(a) | a ∈ Σ}``

where ``Ins(a)`` inserts a node, ``Del(a)`` deletes one, and ``Nop(a)``
is the phantom operation leaving a node untouched. This module defines
the operation labels; the script structure lives in
:mod:`repro.editing.script`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import InvalidScriptError

__all__ = [
    "Op", "EditLabel", "ins", "dele", "nop", "ren", "parse_edit_label", "uniform_label",
]


class Op(enum.Enum):
    """The editing operations.

    ``INS``/``DEL``/``NOP`` are the paper's core alphabet (Section 2);
    ``REN`` is the *node renaming* extension the paper names as future
    work (Section 7) — a kept node whose label changes, cost 1.
    """

    INS = "Ins"
    DEL = "Del"
    NOP = "Nop"
    REN = "Ren"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class EditLabel:
    """An element of the (extended) edit alphabet.

    ``target`` is the new symbol of a renaming and must be set exactly
    for ``REN`` labels; ``output_symbol`` is the label the node carries
    in ``Out(S)``.
    """

    op: Op
    symbol: str
    target: str | None = None

    def __post_init__(self) -> None:
        if (self.op is Op.REN) != (self.target is not None):
            raise InvalidScriptError(
                f"renaming labels carry a target symbol, others do not: {self}"
            )
        if self.op is Op.REN and self.target == self.symbol:
            raise InvalidScriptError(
                f"renaming {self.symbol!r} to itself — use Nop instead"
            )

    def __str__(self) -> str:
        if self.op is Op.REN:
            return f"Ren({self.symbol}→{self.target})"
        return f"{self.op.value}({self.symbol})"

    def __repr__(self) -> str:
        return f"EditLabel({self})"

    @property
    def is_insert(self) -> bool:
        return self.op is Op.INS

    @property
    def is_delete(self) -> bool:
        return self.op is Op.DEL

    @property
    def is_phantom(self) -> bool:
        return self.op is Op.NOP

    @property
    def is_rename(self) -> bool:
        return self.op is Op.REN

    @property
    def is_kept(self) -> bool:
        """Whether the node survives in both ``In`` and ``Out`` (Nop or Ren)."""
        return self.op in (Op.NOP, Op.REN)

    @property
    def output_symbol(self) -> str:
        """The symbol the node carries in ``Out(S)``."""
        if self.op is Op.REN:
            assert self.target is not None
            return self.target
        return self.symbol

    def encode(self) -> str:
        """Compact textual form used by the script term notation: ``Ins.a``.

        Guaranteed to parse back to an equal label
        (``parse_edit_label(label.encode()) == label``) — the write-ahead
        log of :mod:`repro.store` depends on that round trip. The one
        form the compact notation cannot express unambiguously is a
        renaming whose *source* symbol contains a dot (``Ren.a.b.c``
        would re-parse with the wrong split), so it is refused here
        rather than silently corrupted.
        """
        if self.op is Op.REN:
            if "." in self.symbol:
                raise InvalidScriptError(
                    f"cannot encode renaming of dotted symbol {self.symbol!r}: "
                    "the compact form Ren.old.new splits at the first dot"
                )
            return f"Ren.{self.symbol}.{self.target}"
        return f"{self.op.value}.{self.symbol}"


def ins(symbol: str) -> EditLabel:
    """``Ins(symbol)``."""
    return EditLabel(Op.INS, symbol)


def dele(symbol: str) -> EditLabel:
    """``Del(symbol)`` (named ``dele`` because ``del`` is reserved)."""
    return EditLabel(Op.DEL, symbol)


def nop(symbol: str) -> EditLabel:
    """``Nop(symbol)``."""
    return EditLabel(Op.NOP, symbol)


def ren(symbol: str, target: str) -> EditLabel:
    """``Ren(symbol→target)`` — the renaming extension."""
    return EditLabel(Op.REN, symbol, target)


_UNIFORM: "dict[tuple[Op, str], EditLabel]" = {}


def uniform_label(op: Op, symbol: str) -> EditLabel:
    """Interned ``EditLabel(op, symbol)`` for ``Ins``/``Del``/``Nop``.

    Script emission labels whole subtrees uniformly and sparse scripts
    label every untouched node ``Nop``, so one immutable label instance
    per (op, symbol) saves a dataclass construction per node on the hot
    path. Bounded by the alphabets of the schemas served."""
    label = _UNIFORM.get((op, symbol))
    if label is None:
        label = _UNIFORM[(op, symbol)] = EditLabel(op, symbol)
    return label


_BY_NAME = {op.value: op for op in Op}


def parse_edit_label(text: str) -> EditLabel:
    """Parse ``Ins(a)`` / ``Ren(a→b)`` or the compact ``Ins.a`` / ``Ren.a.b``."""
    text = text.strip()
    name, dot, rest = text.partition(".")
    op = _BY_NAME.get(name)
    if dot and op is not None:  # the compact form
        if op is not Op.REN:
            return EditLabel(op, rest)
        parts = rest.split(".", 1)
        if len(parts) != 2:
            raise InvalidScriptError(f"compact renaming is Ren.old.new: {text!r}")
        return EditLabel(Op.REN, parts[0], parts[1])
    name, paren, rest = text.partition("(")
    op = _BY_NAME.get(name)
    if paren and op is not None and rest.endswith(")"):
        body = rest[:-1]
        if op is not Op.REN:
            return EditLabel(op, body.strip())
        for arrow in ("→", "->"):
            if arrow in body:
                old, new = body.split(arrow, 1)
                return EditLabel(Op.REN, old.strip(), new.strip())
        raise InvalidScriptError(f"renaming label needs an arrow: {text!r}")
    raise InvalidScriptError(f"cannot parse edit label {text!r}")
