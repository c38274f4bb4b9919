"""Set-up shared by the test session."""

import warnings

pytest_plugins = ["pytester"]


def pytest_runtest_logreport(report):
    # When a ``@given`` test fails, hypothesis's plugin imports its patch
    # writer while it makes the teardown report, and libcst, which that
    # imports, warns of a deprecation at import.  Under ``-W error`` the
    # warning ends the session there, and no later test runs.  So import the
    # writer at the first failure, before that report, with the warning off.
    if report.failed:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: the plugin skips the writer too
                pass
