"""The hypothesis search behind tests/test_run_properties.py.

It draws configs over the same ranges as the fixed corpus there and checks
the same properties.  Its name keeps it out of tier-1's collection, since
hypothesis mixes literals of the loaded local modules into its draws, and
so its configs change with any edit; CI runs it by path, with the
runs-5000 profile of tests/conftest.py:

    pytest tests/search_run_properties.py --hypothesis-profile=runs-5000

A config that it finds failing becomes a named example of the corpus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_run_properties import Doubles, Floats, Ints, config, run_every_command


def _strategy(spec):
    """The strategy of a spec of tests/test_run_properties.py."""
    if isinstance(spec, list):
        return st.one_of(*map(_strategy, spec))
    if isinstance(spec, tuple):
        return st.sampled_from(spec)
    if isinstance(spec, Ints):
        return st.integers(spec.lo, spec.hi)
    assert isinstance(spec, (Floats, Doubles)), spec
    return st.floats(spec.lo, spec.hi)


@st.composite
def configs(draw):
    return config(lambda spec: draw(_strategy(spec)))


@settings(
    derandomize=True,
    max_examples=max(200, settings.default.max_examples),
    deadline=None,
    database=None,
)
@given(values=configs())
def test_every_valid_config_runs_through_every_command(values):
    run_every_command(values)
