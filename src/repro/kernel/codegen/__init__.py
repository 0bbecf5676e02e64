"""Elaboration-time code generation for the simulation kernel.

The kernel's describe/execute split lives here:

``expr``
    a small combinational expression IR with two consistent
    interpretations — a reference four-state evaluation over
    :class:`~repro.kernel.logic.LogicVector` and an emitted 2-state
    packed-int Python expression;
``levelize``
    topological ordering of a module's combinational rules into a
    loop-free single-pass region;
``emitter``
    straight-line Python source generation (regions and the per-design
    scheduler driver), compiled once via ``compile()``/``exec``;
``backend``
    the :class:`~repro.kernel.codegen.backend.CodegenBackend` execution
    seam that runs the compiled driver and falls back to the
    event-driven interpreter whenever generated code cannot represent
    the current simulation state (X/Z, VCD, tracing, exotic waits).

Nothing in this package is imported on the interpreter-only path; the
simulator pulls it in lazily when ``backend="codegen"`` is requested.
"""

from .backend import CodegenBackend
from .expr import CombExpr, Const, SigRef, cat, mux, ref
from .levelize import CombRegion, CombRule, levelize

__all__ = [
    "CodegenBackend",
    "CombExpr",
    "CombRegion",
    "CombRule",
    "Const",
    "SigRef",
    "cat",
    "mux",
    "ref",
    "levelize",
]
