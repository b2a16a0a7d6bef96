"""Suite-wide test settings.

Every ``hypothesis`` property test runs under one derandomized profile: the
examples are derived from the test itself, no example database is read or
written, and there is no per-example deadline, so reruns see the same cases.
"""
from hypothesis import settings

settings.register_profile("eigcolloc", derandomize=True, deadline=None, database=None)
settings.load_profile("eigcolloc")
