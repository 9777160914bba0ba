"""The test session's own settings, checked in a separate pytest session."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after_the_failure():
    pass
"""


def test_a_failing_property_test_does_not_end_the_session(pytester):
    # Warnings are errors under the project's settings; the hypothesis
    # plugin's report of a failure must not turn into an INTERNALERROR that
    # hides the outcome of every later test.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_property=FAILING_PROPERTY_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
