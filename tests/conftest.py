"""Suite-wide settings: one fixed hypothesis profile.

``derandomize`` makes every run draw the same examples, so the suite is
reproducible, and ``max_examples`` bounds its time; ``deadline`` is off
because single products at n = 12 can take a good fraction of a second
on a slow host.
"""

from hypothesis import settings

settings.register_profile(
    "schubcalc", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("schubcalc")
