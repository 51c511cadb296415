"""Hypothesis profiles of the test suite, picked by ``HYPOTHESIS_PROFILE``.

``tier1``, the default, draws the same examples on every run and keeps no
example database, so that every run of the suite gives the same verdict.
``search`` draws new examples on every run, ten times as many as each test
asks for (``reference.examples``), to look for failures by hand::

    HYPOTHESIS_PROFILE=search PYTHONPATH=src python -m pytest tests/test_losses.py

A failure that ``search`` finds is mended and kept as an ``@example``.
Neither profile has a deadline: a slow run is not a failing one.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("search", max_examples=1000, database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
