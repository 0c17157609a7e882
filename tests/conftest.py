"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from each test's source (derandomize) so every run checks the same
cases, nothing is stored between runs, and there is no per-example deadline,
because timing on a shared machine says nothing about correctness.
"""

from hypothesis import settings

settings.register_profile("sensorcal", derandomize=True, deadline=None, database=None)
settings.load_profile("sensorcal")
