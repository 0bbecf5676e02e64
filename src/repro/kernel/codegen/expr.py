"""Combinational expression IR with dual interpretations.

Every node has exactly two consistent meanings:

* :meth:`CombExpr.eval_lv` — the reference four-state evaluation,
  delegating to :class:`~repro.kernel.logic.LogicVector` operators
  (the kernel's canonical X/Z semantics);
* :meth:`CombExpr.emit` — a 2-state Python expression over packed
  ``int`` locals, valid only when every input is fully defined.  Width
  masks are precomputed at emission time and bound as constants in the
  compiled namespace, so the generated source contains no per-eval mask
  arithmetic beyond a single ``&``.

The emitted form is what the elaboration-time compiler turns into
straight-line region functions; the reference form is both the X/Z
fallback path and the oracle for the compiled/interpreted differential
property tests.
"""

from __future__ import annotations

from typing import Dict, List, Set, Union

from ..logic import LogicVector, _mask
from ..signal import Signal

__all__ = [
    "CombExpr",
    "SigRef",
    "Const",
    "ref",
    "mux",
    "cat",
]


class EmitContext:
    """Collects named mask constants while an expression is emitted."""

    def __init__(self, names: Dict[Signal, str]):
        self.names = names  # Signal -> local variable name
        self.consts: Dict[str, object] = {}

    def mask(self, width: int) -> str:
        name = f"M{width}"
        self.consts[name] = _mask(width)
        return name


def _to_expr(value: Union["CombExpr", Signal, LogicVector, int, bool], width_hint: int = 0) -> "CombExpr":
    if isinstance(value, CombExpr):
        return value
    if isinstance(value, Signal):
        return SigRef(value)
    if isinstance(value, LogicVector):
        return Const(value)
    if isinstance(value, (bool, int)):
        iv = int(value)
        width = max(iv.bit_length(), 1, width_hint)
        return Const(LogicVector.from_int(iv, width))
    raise TypeError(f"cannot use {value!r} in a combinational expression")


class CombExpr:
    """Base class for combinational expression nodes."""

    __slots__ = ("width",)

    # -- analysis ------------------------------------------------------
    def signals(self) -> Set[Signal]:
        """All signals this expression reads."""
        acc: Set[Signal] = set()
        self._collect(acc)
        return acc

    def _collect(self, acc: Set[Signal]) -> None:
        raise NotImplementedError

    # -- dual interpretations ------------------------------------------
    def eval_lv(self, env: Dict[Signal, LogicVector]) -> LogicVector:
        """Reference four-state evaluation.

        ``env`` maps signals already settled *within* the region to
        their new values; signals absent from ``env`` read their
        committed simulator value.
        """
        raise NotImplementedError

    def emit(self, ctx: EmitContext) -> str:
        """2-state packed-int Python expression (inputs fully defined)."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------
    def __and__(self, other):
        return _Bitwise("&", self, _to_expr(other, self.width))

    __rand__ = __and__

    def __or__(self, other):
        return _Bitwise("|", self, _to_expr(other, self.width))

    __ror__ = __or__

    def __xor__(self, other):
        return _Bitwise("^", self, _to_expr(other, self.width))

    __rxor__ = __xor__

    def __invert__(self):
        return _Not(self)

    def __add__(self, other):
        return _Arith("+", self, _to_expr(other, self.width))

    __radd__ = __add__

    def __sub__(self, other):
        return _Arith("-", self, _to_expr(other, self.width))

    def __lshift__(self, n: int):
        return _Shift("<<", self, n)

    def __rshift__(self, n: int):
        return _Shift(">>", self, n)

    def __getitem__(self, key: Union[int, slice]) -> "CombExpr":
        if isinstance(key, int):
            if key < 0:
                key += self.width
            if not 0 <= key < self.width:
                raise IndexError(f"bit {key} out of range for width {self.width}")
            return _Slice(self, key, 1)
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise ValueError("comb slices must be contiguous")
            start, stop, _ = key.indices(self.width)
            if stop - start <= 0:
                raise ValueError(f"empty slice [{key.start}:{key.stop}]")
            return _Slice(self, start, stop - start)
        raise TypeError(f"invalid index {key!r}")

    def eq(self, other) -> "CombExpr":
        """HDL ``==``: 1-bit result, X when either side has unknowns."""
        return _Compare("==", self, _to_expr(other, self.width))

    def ne(self, other) -> "CombExpr":
        return _Compare("!=", self, _to_expr(other, self.width))

    def lt(self, other) -> "CombExpr":
        """Unsigned ``<``: 1-bit result, X-contaminating."""
        return _Compare("<", self, _to_expr(other, self.width))

    def reduce_or(self) -> "CombExpr":
        return _Reduce("or", self)

    def reduce_and(self) -> "CombExpr":
        return _Reduce("and", self)

    def reduce_xor(self) -> "CombExpr":
        return _Reduce("xor", self)


class SigRef(CombExpr):
    """A read of a design signal."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        object.__setattr__(self, "width", signal.width)
        object.__setattr__(self, "signal", signal)

    def _collect(self, acc):
        acc.add(self.signal)

    def eval_lv(self, env):
        lv = env.get(self.signal)
        return lv if lv is not None else self.signal._value

    def emit(self, ctx):
        return ctx.names[self.signal]

    def __repr__(self):
        return f"SigRef({self.signal.name})"


class Const(CombExpr):
    """A literal vector."""

    __slots__ = ("value",)

    def __init__(self, value: LogicVector):
        object.__setattr__(self, "width", value.width)
        object.__setattr__(self, "value", value)

    def _collect(self, acc):
        pass

    def eval_lv(self, env):
        return self.value

    def emit(self, ctx):
        if not self.value.is_defined:
            raise ValueError("cannot emit 2-state code for an X/Z constant")
        return repr(self.value.value)

    def __repr__(self):
        return f"Const({self.value!r})"


class _Bitwise(CombExpr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: CombExpr, b: CombExpr):
        object.__setattr__(self, "width", max(a.width, b.width))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _collect(self, acc):
        self.a._collect(acc)
        self.b._collect(acc)

    def eval_lv(self, env):
        a = self.a.eval_lv(env).resize(self.width)
        b = self.b.eval_lv(env).resize(self.width)
        if self.op == "&":
            return a & b
        if self.op == "|":
            return a | b
        return a ^ b

    def emit(self, ctx):
        return f"({self.a.emit(ctx)} {self.op} {self.b.emit(ctx)})"


class _Not(CombExpr):
    __slots__ = ("a",)

    def __init__(self, a: CombExpr):
        object.__setattr__(self, "width", a.width)
        object.__setattr__(self, "a", a)

    def _collect(self, acc):
        self.a._collect(acc)

    def eval_lv(self, env):
        return ~self.a.eval_lv(env)

    def emit(self, ctx):
        # XOR with the full mask avoids Python's negative ~int
        return f"({ctx.mask(self.width)} ^ {self.a.emit(ctx)})"


class _Arith(CombExpr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: CombExpr, b: CombExpr):
        object.__setattr__(self, "width", max(a.width, b.width))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _collect(self, acc):
        self.a._collect(acc)
        self.b._collect(acc)

    def eval_lv(self, env):
        a = self.a.eval_lv(env).resize(self.width)
        b = self.b.eval_lv(env).resize(self.width)
        return a + b if self.op == "+" else a - b

    def emit(self, ctx):
        return (
            f"(({self.a.emit(ctx)} {self.op} {self.b.emit(ctx)})"
            f" & {ctx.mask(self.width)})"
        )


class _Shift(CombExpr):
    __slots__ = ("op", "a", "n")

    def __init__(self, op: str, a: CombExpr, n: int):
        if not isinstance(n, int) or n < 0:
            raise TypeError("comb shifts take a non-negative int count")
        object.__setattr__(self, "width", a.width)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)

    def _collect(self, acc):
        self.a._collect(acc)

    def eval_lv(self, env):
        a = self.a.eval_lv(env)
        if self.op == "<<":
            shifted = a << self.n
            # stay at the declared width (HDL shifts drop overflow bits)
            return LogicVector(
                self.width, shifted.value, shifted.xmask, shifted.zmask
            )
        return (a >> self.n).resize(self.width)

    def emit(self, ctx):
        if self.op == "<<":
            return f"(({self.a.emit(ctx)} << {self.n}) & {ctx.mask(self.width)})"
        return f"({self.a.emit(ctx)} >> {self.n})"


class _Compare(CombExpr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: CombExpr, b: CombExpr):
        object.__setattr__(self, "width", 1)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _collect(self, acc):
        self.a._collect(acc)
        self.b._collect(acc)

    def eval_lv(self, env):
        w = max(self.a.width, self.b.width)
        a = self.a.eval_lv(env).resize(w)
        b = self.b.eval_lv(env).resize(w)
        if not (a.is_defined and b.is_defined):
            return LogicVector.unknown(1)
        if self.op == "==":
            return LogicVector(1, int(a.value == b.value))
        if self.op == "!=":
            return LogicVector(1, int(a.value != b.value))
        return LogicVector(1, int(a.value < b.value))

    def emit(self, ctx):
        return f"(1 if {self.a.emit(ctx)} {self.op} {self.b.emit(ctx)} else 0)"


class _Reduce(CombExpr):
    __slots__ = ("kind", "a")

    def __init__(self, kind: str, a: CombExpr):
        object.__setattr__(self, "width", 1)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a", a)

    def _collect(self, acc):
        self.a._collect(acc)

    def eval_lv(self, env):
        a = self.a.eval_lv(env)
        if self.kind == "or":
            return a.reduce_or()
        if self.kind == "and":
            return a.reduce_and()
        return a.reduce_xor()

    def emit(self, ctx):
        a = self.a.emit(ctx)
        if self.kind == "or":
            return f"(1 if {a} else 0)"
        if self.kind == "and":
            return f"(1 if {a} == {ctx.mask(self.a.width)} else 0)"
        return f'(bin({a}).count("1") & 1)'


class _Mux(CombExpr):
    __slots__ = ("sel", "a", "b")

    def __init__(self, sel: CombExpr, a: CombExpr, b: CombExpr):
        object.__setattr__(self, "width", max(a.width, b.width))
        object.__setattr__(self, "sel", sel)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _collect(self, acc):
        self.sel._collect(acc)
        self.a._collect(acc)
        self.b._collect(acc)

    def eval_lv(self, env):
        sel = self.sel.eval_lv(env)
        if not sel.is_defined:
            # pessimistic: an unknown select contaminates the whole result
            return LogicVector.unknown(self.width)
        picked = self.a if sel.value else self.b
        return picked.eval_lv(env).resize(self.width)

    def emit(self, ctx):
        return (
            f"({self.a.emit(ctx)} if {self.sel.emit(ctx)} else {self.b.emit(ctx)})"
        )


class _Concat(CombExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: List[CombExpr]):
        object.__setattr__(self, "width", sum(p.width for p in parts))
        object.__setattr__(self, "parts", parts)

    def _collect(self, acc):
        for p in self.parts:
            p._collect(acc)

    def eval_lv(self, env):
        value = xmask = zmask = 0
        for p in self.parts:  # MSB first, Verilog {a, b} order
            lv = p.eval_lv(env)
            value = (value << p.width) | lv.value
            xmask = (xmask << p.width) | lv.xmask
            zmask = (zmask << p.width) | lv.zmask
        return LogicVector(self.width, value, xmask, zmask)

    def emit(self, ctx):
        out = None
        for p in self.parts:
            piece = p.emit(ctx)
            out = piece if out is None else f"(({out} << {p.width}) | {piece})"
        return out


class _Slice(CombExpr):
    __slots__ = ("a", "lo")

    def __init__(self, a: CombExpr, lo: int, width: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lo", lo)

    def _collect(self, acc):
        self.a._collect(acc)

    def eval_lv(self, env):
        lv = self.a.eval_lv(env)
        return LogicVector(
            self.width,
            lv.value >> self.lo,
            lv.xmask >> self.lo,
            lv.zmask >> self.lo,
        )

    def emit(self, ctx):
        if self.lo:
            return f"(({self.a.emit(ctx)} >> {self.lo}) & {ctx.mask(self.width)})"
        return f"({self.a.emit(ctx)} & {ctx.mask(self.width)})"


def ref(signal: Signal) -> SigRef:
    """Lift a :class:`Signal` into the expression IR."""
    return SigRef(signal)


def mux(sel, a, b) -> CombExpr:
    """``sel ? a : b`` with pessimistic X on an undefined select."""
    sel_e = _to_expr(sel)
    a_e = _to_expr(a)
    b_e = _to_expr(b, a_e.width)
    return _Mux(sel_e, a_e, _to_expr(b_e, a_e.width))


def cat(*parts) -> CombExpr:
    """Concatenate MSB-first (Verilog ``{a, b, c}`` order)."""
    if not parts:
        raise ValueError("cat() of no parts")
    return _Concat([_to_expr(p) for p in parts])
