"""Suite-wide settings: property tests draw the same examples on every run,
and no example fails on wall time alone."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
