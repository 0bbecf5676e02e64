"""The compiled execution backend of the simulation kernel.

``emitter``
    straight-line Python source generation of the per-design scheduler
    driver, compiled once via ``compile()``/``exec``;
``backend``
    the :class:`~repro.kernel.codegen.backend.CodegenBackend` execution
    seam that runs the compiled driver and falls back to the
    event-driven interpreter whenever generated code cannot represent
    the current simulation state (X/Z, VCD, tracing, exotic waits).

Nothing in this package is imported on the interpreter-only path; the
simulator pulls it in lazily when ``backend="codegen"`` is requested.
"""

from .backend import CodegenBackend

__all__ = ["CodegenBackend"]
