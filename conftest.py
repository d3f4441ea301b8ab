"""Repository-level pytest configuration.

Defines the ``--repro-seed`` option the test suite seeds its RNGs from
(``tests/conftest.py``), so a run is reproducible across the CI matrix:
the same seed on every runner and Python version yields the same
examples and therefore the same outcomes.
"""

from __future__ import annotations

DEFAULT_REPRO_SEED = 19960610  # DAC'96 session date; any fixed value works.


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        type=int,
        default=DEFAULT_REPRO_SEED,
        help="fixed RNG seed applied to random/hypothesis for deterministic runs",
    )
