"""Shared test setup: every property test draws the same examples on every
run, so a Tier-1 result does not change from one run to the next."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
