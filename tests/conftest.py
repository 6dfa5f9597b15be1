"""Every ``@given`` test draws the same examples on every run, with its own
example count: a tier-1 result is a function of the tree."""
from hypothesis import settings

settings.register_profile("tree", derandomize=True)
settings.load_profile("tree")
