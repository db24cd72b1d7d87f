"""Hypothesis draws the same examples on every run, so the suite is reproducible."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
