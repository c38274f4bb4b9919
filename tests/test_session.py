"""The test session's own set-up."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_failing_hypothesis_test_lets_later_tests_run(pytester):
    pytester.makeconftest(CONFTEST.read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-W", "error", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
