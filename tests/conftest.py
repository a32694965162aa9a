"""Hypothesis settings for the whole suite: reproducible and bounded.

Examples are derived from each test's source rather than drawn at random,
no example database is kept between runs, and every property test stops
after a fixed number of examples, so two runs of the suite do the same work.
"""

from hypothesis import settings

settings.register_profile("csarank", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("csarank")
