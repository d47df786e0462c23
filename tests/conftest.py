"""Test-suite anchor; keeps the tests directory on sys.path for util imports.

Property tests draw the same examples on every run, so a run that passes
passes again: the "derandomized" Hypothesis profile is the default. The
"randomized" profile draws fresh examples; select it with
`pytest --hypothesis-profile=randomized`, which overrides this default.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")
