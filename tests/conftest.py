"""Test-suite settings shared by every module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# reproduces: derandomize seeds each test's search from the test itself.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
