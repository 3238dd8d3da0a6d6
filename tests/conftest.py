"""Hypothesis draws the same examples on every run and keeps no example
database, so a run's result depends on the code alone."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
