"""Shared benchmark fixtures.

Scale comes from ``REPRO_SCALE`` (tiny / quick / full; default quick).
"""

from __future__ import annotations

import pytest

from repro.experiments.config import Scale, default_scale


@pytest.fixture(scope="session")
def scale() -> Scale:
    """The fidelity preset for this benchmark session."""
    return default_scale()
