"""Suite-wide test settings.

Every property-based test draws the same examples on every run: the
profile below seeds Hypothesis from each test's own name and code, so a
Tier-1 run is reproducible.  A test's own @settings still sets its
example count and deadline; this profile only fixes the seed.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
