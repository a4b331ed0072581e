"""One Hypothesis profile for every property test: derandomized, with no
example database, and no per-example deadline.  On a shared VM single
calls run up to several times slower during bursts (perfbench/README.md),
so the default 200 ms deadline would fail correct tests."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("stabkit", derandomize=True, database=None, deadline=None)
    settings.load_profile("stabkit")
