"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests draw the same examples on every run, with no per-example
# deadline and no example database, so Tier-1 is deterministic.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
