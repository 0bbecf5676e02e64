"""The retired ``lanes`` backend name must be rejected, not ignored.

Only the ``interp`` and ``codegen`` backends exist; asking for
``lanes`` has to fail loudly and name the backends that are valid.
"""

import pytest

from repro.kernel import Simulator


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="expected 'interp' or 'codegen'"):
        Simulator(backend="lanes")
    with pytest.raises(ValueError, match="unknown execution backend"):
        Simulator(backend="warp")
