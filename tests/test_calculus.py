"""Spectral calculus: scalar functions, divided differences, Frechet maps."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropygap import (
    BUILTIN_NAMES,
    CUBE,
    IDENTITY,
    LOG,
    SQUARE,
    T_LOG_T,
    CampaignConfig,
    DomainError,
    NumericError,
    RngStream,
    by_name,
    divided_difference,
    eigh,
    frechet_derivative,
    loewner,
    matrix_function,
    power,
    quad_form,
    random_hermitian,
    random_pd,
)
from entropygap import oracles
from entropygap.oracles import (
    RESOLVENT_NODES,
    dd_log_quadrature,
    gauss_legendre_unit,
    log_quad_form_quadrature,
    resolvent_nodes,
)
from references import frechet_central_difference

LOG2 = 0.6931471805599453


def _draws(dim: int, count: int, seed: int):
    for index in range(count):
        rng = RngStream(seed, index)
        yield random_pd(dim, rng), random_hermitian(dim, rng)


# -- scalar functions ---------------------------------------------------------


def _check_derivatives(func, points=(0.5, 1.0, 2.0, 5.0), tol: float = 1e-6) -> None:
    # The confluent kernels f'(t) = dd(t, t) and f''(t) = dd1(t, t) against
    # central differences of f and of f'.
    def f1(t):
        return func.dd(t, t)

    for t in points:
        h = 1e-6 * t
        for got, parent in ((f1(t), func.f), (func.dd1(t, t), f1)):
            approx = float(parent(t + h) - parent(t - h)) / (2.0 * h)
            assert abs(got - approx) <= tol * max(1.0, abs(approx)), (func.name, t)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_derivatives_consistent(name):
    _check_derivatives(by_name(name, p=1.5))


@pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
def test_power_family(p):
    func = power(p)
    _check_derivatives(func)
    assert func.f(2.0) == pytest.approx(2.0**p)


def test_power_exponent_range_enforced():
    with pytest.raises(DomainError):
        power(0.5)
    with pytest.raises(DomainError):
        power(2.5)


def test_by_name_rejects_unknown():
    with pytest.raises(DomainError, match="unknown scalar function"):
        by_name("entropy")
    with pytest.raises(DomainError, match="exponent"):
        by_name("power")


def test_builtin_values():
    assert T_LOG_T.f(math.e) == pytest.approx(math.e)
    assert T_LOG_T.dd(1.0, 1.0) == 1.0
    assert T_LOG_T.dd1(2.0, 2.0) == 0.5
    assert LOG.dd1(2.0, 2.0) == -0.25
    assert CUBE.dd1(2.0, 2.0) == 12.0
    assert IDENTITY.dd1(7.0, 7.0) == 0.0


# -- divided differences ------------------------------------------------------


def test_divided_difference_log_pair():
    assert divided_difference(LOG, "f", 1.0, 2.0) == pytest.approx(LOG2, abs=1e-15)


def test_divided_difference_confluent_uses_derivative():
    # f' of t log t is log t + 1; its divided difference at (2, 2) is f''(2).
    assert divided_difference(T_LOG_T, "f1", 2.0, 2.0) == 0.5


def test_divided_difference_matches_quadrature():
    assert abs(divided_difference(LOG, "f", 1.0, 3.0) - dd_log_quadrature(1.0, 3.0)) <= 1e-10


def test_divided_difference_rejects_nonpositive():
    with pytest.raises(DomainError):
        divided_difference(LOG, "f", 0.0, 1.0)
    with pytest.raises(DomainError):
        divided_difference(LOG, "f", 1.0, -2.0)
    with pytest.raises(DomainError, match="which"):
        divided_difference(LOG, "f2", 1.0, 2.0)


# Pairs with an argument outside (0, inf), where the kernels read NaN, inf or
# 0 and the rules' arithmetic warns; each is a DomainError before any of it.
OUTSIDE_THE_DOMAIN = [(1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                      (0.0, 1.0), (-1.0, 1.0), (1.0, -math.inf)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s,t", OUTSIDE_THE_DOMAIN)
@pytest.mark.parametrize("which", ["f", "f1"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_divided_difference_rejects_arguments_outside_its_domain(name, which, s, t):
    func = by_name(name, p=1.5)
    for pair in ((s, t), (np.array([2.0, s]), np.array([3.0, t]))):
        with pytest.raises(DomainError, match="^divided difference needs positive finite arguments"):
            divided_difference(func, which, *pair)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s,t", OUTSIDE_THE_DOMAIN)
def test_log_quadrature_rejects_arguments_outside_its_domain(s, t):
    for pair in ((s, t), (np.array([2.0, s]), np.array([3.0, t]))):
        with pytest.raises(DomainError, match="^integral kernel needs positive finite arguments"):
            dd_log_quadrature(*pair)


def test_divided_difference_near_confluence_stays_accurate():
    # The quadrature is accurate to 1e-14 relative at every gap, 0 included.
    s = 1.0
    for gap in (1e-3, 1e-5, 1e-7, 1e-8, 1e-10, 1e-14, 0.0):
        got = divided_difference(LOG, "f", s, s + gap)
        assert abs(got - dd_log_quadrature(s, s + gap)) <= 1e-14 * got
    assert divided_difference(LOG, "f", s, s) == 1.0 / s


def test_adjacent_floats_are_not_confluent():
    # log(t) / (t - 1) at t = 1 + 2**-52 is 1 - 2**-53 to rounding; the
    # derivative at the rounded midpoint, 1, would be one ulp off.
    after = np.nextafter(1.0, 2.0)
    assert divided_difference(LOG, "f", 1.0, after) == np.nextafter(1.0, 0.0)
    assert divided_difference(T_LOG_T, "f1", after, 1.0) == np.nextafter(1.0, 0.0)


def test_power_kernel_reads_no_overflow_from_its_unused_form():
    # At a ratio of 1e160 expm1(2 log1p(u)) would overflow; the plain
    # quotient is read there, and the expm1 form sees u clipped to 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = divided_difference(power(2.0), "f", 1e-150, 1e10)
    assert got == 1e10


# Pairs whose ratio hi / lo overflows, or whose hi**2 does.
_HUGE_RATIO_PAIRS = ((1e-300, 1e10), (5e-324, 1.0), (1e-200, 1e200))


@pytest.mark.parametrize("which", ["f", "f1"])
@pytest.mark.parametrize("name,p", [("log", None), ("t_log_t", None), ("power", 1.0),
                                    ("power", 1.5), ("power", 2.0)])
def test_kernels_hold_where_the_spectral_ratio_overflows(name, p, which):
    # Against 50-digit arithmetic, as scalars in both orders and as one array,
    # with every warning an error.  The f kernel of t log t is bounded as in
    # test_divided_difference_is_exact_at_every_gap.  A value beyond the float
    # range, f' of log at (5e-324, 1), must read as infinite.
    mpmath = pytest.importorskip("mpmath")
    func = by_name(name, p=p)
    derivatives = _mp_derivatives(mpmath, name, p)
    mp_f = derivatives[1] if which == "f1" else derivatives[0]
    absolute = (name, which) == ("t_log_t", "f")
    representable = []
    with mpmath.workdps(50):
        for s, t in _HUGE_RATIO_PAIRS:
            a, b = mpmath.mpf(s), mpmath.mpf(t)
            ref = (mp_f(b) - mp_f(a)) / (b - a)
            if abs(ref) > np.finfo(float).max:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert divided_difference(func, which, s, t) == math.copysign(math.inf, ref)
                continue
            representable.append((s, t))
            scale = max(1, abs(ref)) if absolute else abs(ref)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for got in (divided_difference(func, which, s, t),
                            divided_difference(func, which, t, s)):
                    assert abs(got - ref) <= 1e-15 * scale, (s, t, got, float(ref))
    lo, hi = np.array(representable).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = divided_difference(func, which, lo, hi)
        singles = [divided_difference(func, which, s, t) for s, t in zip(lo, hi)]
    assert stacked.tobytes() == np.array(singles).tobytes()


# Both ends of each pair from the smallest subnormal float to 1e-150: the
# subnormal range, the smallest normal float and its neighbours, and the
# magnitudes where t**2 and t**1.5 underflow.
_TINY_POINTS = (5e-324, 1e-320, 3e-318, 1e-315, 2e-310, 1e-308, 2.2250738585072014e-308,
                3e-308, 1e-305, 1e-300, 3e-300, 1e-250, 2e-250, 1e-200, 1e-160, 2e-160,
                1e-155, 1e-150)


# Known defect: for q = p - 1 near 0 the plain quotient of the f1 kernel of
# t**p cancels beyond hi = 2 lo, where (hi / lo)**q is still near 1; at
# (2e-310, 1e-308) power(1.01) errs by 1.8e-15 relative, and at (2.9, 7.25)
# by 2.2e-14.
_SMALL_Q_FAR_FORM = pytest.mark.xfail(strict=True, reason="t**q's plain quotient cancels at q near 0")


@pytest.mark.parametrize("name,p,which", [
    *((name, None, which) for name in ("t_log_t", "log", "identity", "square", "cube")
      for which in ("f", "f1")),
    *(("power", p, which) for p in (1.0, 1.01, 1.5, 1.99, 2.0) for which in ("f", "f1")
      if (p, which) != (1.01, "f1")),
    pytest.param("power", 1.01, "f1", marks=_SMALL_Q_FAR_FORM),
])
def test_kernels_hold_at_tiny_magnitudes(name, p, which):
    # Against 50-digit arithmetic at every pair of _TINY_POINTS, confluent
    # pairs included, as scalars in both orders and as one array, with every
    # warning an error.  A normal value is bounded as in
    # test_divided_difference_is_exact_at_every_gap, a subnormal one by one
    # subnormal step; a value beyond the float range must read as infinite.
    mpmath = pytest.importorskip("mpmath")
    func = by_name(name, p=p)
    derivatives = _mp_derivatives(mpmath, name, p)
    mp_f, mp_df = derivatives[1:] if which == "f1" else derivatives[:2]
    absolute = (name, which) == ("t_log_t", "f")
    representable = []
    with mpmath.workdps(50):
        for i, s in enumerate(_TINY_POINTS):
            for t in _TINY_POINTS[i:]:
                a, b = mpmath.mpf(s), mpmath.mpf(t)
                ref = mp_df(a) if a == b else (mp_f(b) - mp_f(a)) / (b - a)
                if abs(ref) > np.finfo(float).max:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        assert divided_difference(func, which, s, t) == math.copysign(math.inf, ref)
                    continue
                representable.append((s, t))
                if abs(ref) >= np.finfo(float).tiny:
                    bound = 1e-15 * (max(1, abs(ref)) if absolute else abs(ref))
                else:
                    bound = 5e-324
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for got in (divided_difference(func, which, s, t),
                                divided_difference(func, which, t, s)):
                        assert abs(got - ref) <= bound, (s, t, got, float(ref))
    lo, hi = np.array(representable).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = divided_difference(func, which, lo, hi)
        singles = [divided_difference(func, which, s, t) for s, t in zip(lo, hi)]
    assert stacked.tobytes() == np.array(singles).tobytes()


def test_log_derivative_kernel_holds_where_the_product_overflows():
    # -1 / (s t) at products beyond the float range, against 50-digit
    # arithmetic, in both orders and as one array, with every warning an
    # error; below that range the value is -1 / (lo * hi) bit for bit.
    mpmath = pytest.importorskip("mpmath")
    pairs = ((1e154, 1e155), (1e200, 3.0), (1.5, 1e308), (1e300, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mpmath.workdps(50):
            for s, t in pairs:
                ref = -1 / (mpmath.mpf(s) * mpmath.mpf(t))
                for got in (divided_difference(LOG, "f1", s, t), divided_difference(LOG, "f1", t, s)):
                    assert math.copysign(1.0, got) == -1.0
                    # A subnormal value is exact to half its spacing only.
                    assert abs(got - ref) <= 1e-15 * abs(ref) + 5e-324, (s, t, got, float(ref))
        lo, hi = np.array(pairs).T
        stacked = divided_difference(LOG, "f1", lo, hi)
        singles = [divided_difference(LOG, "f1", s, t) for s, t in pairs]
        for s, t in ((0.3, 7.0), (1e150, 1e150), (2.5, 2.5)):
            assert divided_difference(LOG, "f1", s, t) == -1.0 / (s * t)
    assert stacked.tobytes() == np.array(singles).tobytes()


def test_t_log_t_kernel_is_finite_at_subnormal_confluence():
    # At s == t the kernel is f'(t) = log t + 1, also where 1 / t overflows;
    # wherever hi * (log kernel) + log lo is finite it is kept bit for bit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-310, 5e-324, 2e-308):
            assert divided_difference(T_LOG_T, "f", t, t) == 1.0 + math.log(t)
        t = np.array([1e-310, 0.5, 5e-324])
        assert divided_difference(T_LOG_T, "f", t, t).tobytes() == \
            np.array([1.0 + math.log(1e-310), T_LOG_T.dd(0.5, 0.5), 1.0 + math.log(5e-324)]).tobytes()
    assert divided_difference(T_LOG_T, "f", 2.2e-308, 2.2e-308) == \
        2.2e-308 * (1.0 / 2.2e-308) + math.log(2.2e-308)


def test_log_kernel_takes_the_log_difference_only_where_d_over_lo_overflows():
    # log1p(d / lo) / d wherever d / lo is finite, at ratios up to 1e308.
    for lo, hi in ((1e-290, 1e10), (1e-300, 1e8), (2.0, 7.0)):
        d = hi - lo
        assert divided_difference(LOG, "f", lo, hi) == np.log1p(d / lo) / d


# Kernels of increasing functions are positive at every pair; those of
# f' = 1 (identity, power(1)) vanish.
_POSITIVE_KERNELS = {("log", "f"), ("t_log_t", "f1"), ("power", "f"), ("power", "f1"),
                     ("identity", "f"), ("square", "f"), ("square", "f1"), ("cube", "f"),
                     ("cube", "f1")}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(BUILTIN_NAMES),
    which=st.sampled_from(["f", "f1"]),
    p=st.floats(min_value=1.0, max_value=2.0),
    s=st.floats(min_value=1e-6, max_value=1e6),
    t=st.floats(min_value=1e-6, max_value=1e6),
)
def test_divided_difference_symmetric_and_increasing_kernels_positive(name, which, p, s, t):
    func = by_name(name, p=p)
    forward = divided_difference(func, which, s, t)
    backward = divided_difference(func, which, t, s)
    assert np.float64(forward).tobytes() == np.float64(backward).tobytes()
    if (name, which) in _POSITIVE_KERNELS and not (name == "power" and which == "f1" and p == 1.0):
        assert forward > 0.0


@_SMALL_Q_FAR_FORM
def test_power_derivative_kernel_at_the_smallest_exponent_above_one():
    # A pair the test above can draw: at q = 2**-52 the plain quotient's
    # hi**q - lo**q rounds to exactly zero, where the kernel is 5.7357e-22 at
    # 50 digits.
    got = divided_difference(power(1.0 + 2.0**-52), "f1", 268338.0, 536677.0)
    assert abs(got - 5.7356554806592765e-22) <= 1e-15 * 5.7356554806592765e-22


# Reference kernels at 50 digits: (name, p) -> (f, f', f'') as mpmath callables.
def _mp_derivatives(mpmath, name, p):
    if name == "power":
        q = mpmath.mpf(p)
        return (lambda x: x**q, lambda x: q * x ** (q - 1), lambda x: q * (q - 1) * x ** (q - 2))
    return {
        "t_log_t": (lambda x: x * mpmath.log(x), lambda x: mpmath.log(x) + 1, lambda x: 1 / x),
        "log": (mpmath.log, lambda x: 1 / x, lambda x: -1 / x**2),
        "identity": (lambda x: x, lambda x: mpmath.mpf(1), lambda x: mpmath.mpf(0)),
        "square": (lambda x: x**2, lambda x: 2 * x, lambda x: mpmath.mpf(2)),
        "cube": (lambda x: x**3, lambda x: 3 * x**2, lambda x: 6 * x),
    }[name]


@pytest.mark.parametrize("which", ["f", "f1"])
@pytest.mark.parametrize("name,p", [("t_log_t", None), ("log", None), ("identity", None),
                                    ("square", None), ("cube", None), ("power", 1.0),
                                    ("power", 1.5), ("power", 2.0)])
def test_divided_difference_is_exact_at_every_gap(name, p, which):
    # Against 50-digit arithmetic on the float pair itself, at relative gaps
    # 0 and 1e-14 ... 1e10, in both argument orders.  The f kernel of t log t
    # passes through zero near 1/e, where its bound is absolute.
    mpmath = pytest.importorskip("mpmath")
    func = by_name(name, p=p)
    derivatives = _mp_derivatives(mpmath, name, p)
    mp_f, mp_df = derivatives[1:] if which == "f1" else derivatives[:2]
    absolute = (name, which) == ("t_log_t", "f")
    with mpmath.workdps(50):
        for base in (0.1, 0.37, 1.0, 2.9, 7.3):
            for gap in [0.0] + [10.0**e for e in range(-14, 11)]:
                far = base * (1.0 + gap)
                for s, t in ((base, far), (far, base)):
                    got = divided_difference(func, which, s, t)
                    a, b = mpmath.mpf(s), mpmath.mpf(t)
                    ref = mp_df(a) if a == b else (mp_f(b) - mp_f(a)) / (b - a)
                    scale = max(1, abs(ref)) if absolute else abs(ref)
                    assert abs(got - ref) <= 1e-15 * scale, (s, t, got, float(ref))


# -- Loewner matrices ---------------------------------------------------------


def test_loewner_square_kernel_is_constant():
    dec = eigh(np.diag([0.5, 1.0, 2.5]).astype(complex))
    k = loewner(SQUARE, "f1", dec.eigenvalues)
    assert np.array_equal(k, np.full((3, 3), 2.0))


def test_loewner_identity_kernel_is_zero():
    dec = eigh(np.diag([1.0, 3.0]).astype(complex))
    k = loewner(IDENTITY, "f1", dec.eigenvalues)
    assert np.array_equal(k, np.zeros((2, 2)))


def test_loewner_t_log_t_example():
    dec = eigh(np.diag([1.0, 2.0]).astype(complex))
    k = loewner(T_LOG_T, "f1", dec.eigenvalues)
    expected = np.array([[1.0, LOG2], [LOG2, 0.5]])
    assert np.allclose(k, expected, atol=1e-15)
    assert np.array_equal(k, k.T)


def test_loewner_log_kernel_positive_on_random_spectra():
    for index in range(20):
        rng = RngStream(13, index)
        dec = eigh(random_pd(5, rng, (0.1, 10.0)))
        k = loewner(LOG, "f", dec.eigenvalues)
        assert (k > 0).all()


def test_loewner_rejects_nonpositive_spectrum():
    dec = eigh(np.diag([-1.0, 2.0]).astype(complex))
    with pytest.raises(DomainError, match="-1"):
        loewner(LOG, "f", dec.eigenvalues)


def test_loewner_rejects_unknown_selector():
    dec = eigh(np.eye(2, dtype=complex))
    with pytest.raises(DomainError, match="which"):
        loewner(LOG, "f2", dec.eigenvalues)


# Relative gaps, with t = s * (1 + gap): confluent, close, and beyond the
# ratio 2 where the power kernels change form.
_GAPS = (0.0, 1e-14, 1e-10, 1e-7, 1e-5, 1e-3, 1.0, 3.0, 1e6)


def _pairs():
    """Pairs with s < t and with s > t at every gap, as two arrays."""
    low = np.array([0.3, 1.0, 7.5])[:, None] * np.ones(len(_GAPS))
    high = low * (1.0 + np.array(_GAPS))
    return np.concatenate([low.ravel(), high.ravel()]), np.concatenate([high.ravel(), low.ravel()])


@pytest.mark.parametrize("which", ["f", "f1"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_divided_difference_is_the_loewner_kernel_bitwise(name, which):
    # One rule: the kernel on a spectrum [s, t], the array call and the scalar
    # calls give the same bits for every pair.
    func = by_name(name, p=1.5)
    s, t = _pairs()
    values = divided_difference(func, which, s, t)
    kernels = loewner(func, which, np.stack([s, t], axis=-1))
    one_at_a_time = [divided_difference(func, which, float(a), float(b)) for a, b in zip(s, t)]
    assert values.tobytes() == kernels[:, 1, 0].tobytes()
    assert divided_difference(func, which, t, s).tobytes() == kernels[:, 0, 1].tobytes()
    assert kernels[:, 0, 1].tobytes() == values.tobytes()  # symmetric bitwise
    assert values.tobytes() == np.array(one_at_a_time).tobytes()
    assert all(isinstance(v, float) for v in one_at_a_time)


def test_dd_log_quadrature_on_arrays_matches_its_scalar_calls_bitwise():
    s, t = _pairs()
    values = dd_log_quadrature(s, t)
    one_at_a_time = [dd_log_quadrature(float(a), float(b)) for a, b in zip(s, t)]
    assert values.shape == s.shape
    assert values.tobytes() == np.array(one_at_a_time).tobytes()
    assert dd_log_quadrature(t, s).tobytes() == values.tobytes()
    with pytest.raises(DomainError):
        dd_log_quadrature(s, -t)
    with pytest.raises(NumericError, match="nodes at condition number 1e\\+10"):
        dd_log_quadrature(s, np.where(s == 1.0, 1e10, t))


# -- matrix functions ---------------------------------------------------------


def test_matrix_function_log_identity_is_zero():
    out = matrix_function(LOG, np.eye(3, dtype=complex))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_matrix_function_t_log_t_diagonal():
    out = matrix_function(T_LOG_T, np.diag([1.0, math.e]).astype(complex))
    assert np.allclose(out, np.diag([0.0, math.e]), atol=1e-14)


def test_matrix_function_square_matches_product():
    for a, _ in _draws(4, 10, 17):
        out = matrix_function(SQUARE, a)
        assert np.linalg.norm(out - a @ a) <= 1e-10 * np.linalg.norm(a @ a)


def test_matrix_function_names_offending_eigenvalue():
    bad = np.diag([1.0, -0.5]).astype(complex)
    with pytest.raises(DomainError, match="-0.5"):
        matrix_function(LOG, bad)


# -- Frechet derivatives ------------------------------------------------------


def test_frechet_identity_returns_direction():
    for a, h in _draws(4, 5, 19):
        out = frechet_derivative(IDENTITY, "f", a, h)
        assert np.linalg.norm(out - h) <= 1e-12 * max(1.0, np.linalg.norm(h))


def test_frechet_square_is_anticommutator():
    for a, h in _draws(5, 10, 23):
        out = frechet_derivative(SQUARE, "f", a, h)
        expected = a @ h + h @ a
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)


def test_frechet_matches_central_difference():
    for a, h in _draws(4, 20, 29):
        out = frechet_derivative(T_LOG_T, "f", a, h)
        ref = frechet_central_difference(T_LOG_T, a, h, step=1e-5)
        assert np.linalg.norm(out - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


def test_frechet_is_linear():
    rng = RngStream(31, 0)
    a = random_pd(4, rng)
    h1 = random_hermitian(4, rng)
    h2 = random_hermitian(4, rng)
    combined = frechet_derivative(T_LOG_T, "f", a, 2.0 * h1 - 0.5 * h2)
    split = 2.0 * frechet_derivative(T_LOG_T, "f", a, h1) - 0.5 * frechet_derivative(
        T_LOG_T, "f", a, h2
    )
    assert np.linalg.norm(combined - split) <= 1e-10 * max(1.0, np.linalg.norm(split))


@pytest.mark.parametrize("name,p", [("t_log_t", None), ("power", 1.5), ("log", None)])
def test_frechet_trace_identity(name, p):
    # trace of the derivative along h equals trace(f'(a) h).
    func = by_name(name, p=p)
    derivative = by_name("identity")
    for dim in (2, 4, 6):
        for index in range(17):
            rng = RngStream(37, dim * 100 + index)
            a = random_pd(dim, rng)
            h = random_hermitian(dim, rng)
            lhs = np.trace(frechet_derivative(func, "f", a, h)).real
            dec = eigh(a)
            fprime = (dec.basis * func.dd(dec.eigenvalues, dec.eigenvalues)) @ dec.basis.conj().T
            rhs = np.trace(fprime @ h).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_frechet_output_is_stored_hermitian():
    a, h = next(_draws(3, 1, 41))
    out = frechet_derivative(T_LOG_T, "f", a, h)
    assert np.array_equal(out, out.conj().T)


def test_frechet_rejects_shape_mismatch():
    rng = RngStream(43, 0)
    a = random_pd(3, rng)
    h = random_hermitian(2, rng)
    with pytest.raises(DomainError):
        frechet_derivative(T_LOG_T, "f", a, h)


# -- quadratic form -----------------------------------------------------------


def test_quad_form_square_closed_form():
    for a, h in _draws(4, 10, 47):
        got = quad_form(SQUARE, a, h)
        expected = 2.0 * np.trace(h @ h).real
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_quad_form_identity_vanishes():
    for a, h in _draws(3, 5, 53):
        assert quad_form(IDENTITY, a, h) == 0.0


def test_quad_form_cube_closed_form():
    # f'(t) = 3t^2 gives Df'(x)[h] = 3(xh + hx), hence 6 tr(x h^2).
    for a, h in _draws(4, 10, 59):
        got = quad_form(CUBE, a, h)
        expected = 6.0 * np.trace(a @ h @ h).real
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_quad_form_matches_resolvent_quadrature():
    for dim in (2, 3, 5):
        for index in range(10):
            rng = RngStream(61, dim * 100 + index)
            a = random_pd(dim, rng)
            h = random_hermitian(dim, rng)
            got = quad_form(T_LOG_T, a, h)
            ref = log_quad_form_quadrature(a, h)
            assert abs(got - ref) <= 1e-12 * abs(ref)


def _mp_log_quad_form(a, h) -> float:
    """tr[h Dlog(a)[h]] at 40 digits: sum_ij |(u^H h u)_ij|^2 dd log(l_i, l_j)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, u = mpmath.eighe(mpmath.matrix(a.tolist()))
        g = u.H * mpmath.matrix(h.tolist()) * u
        total = mpmath.mpf(0)
        for i in range(a.shape[0]):
            for j in range(a.shape[0]):
                s, t = lam[i], lam[j]
                dd = 1 / s if s == t else (mpmath.log(t) - mpmath.log(s)) / (t - s)
                total += abs(g[i, j]) ** 2 * dd
        return float(total)


def _centred_resolvent_rule(a, h, nodes: int) -> float:
    # The centred resolvent integral at a given node count, as a self-check.
    lam = np.linalg.eigvalsh(a)
    c = math.sqrt(lam[0] * lam[-1])
    x, w = gauss_legendre_unit(nodes)
    pencil = (1.0 - x)[:, None, None] * a + (c * x)[:, None, None] * np.eye(len(a))
    solved = np.linalg.solve(pencil, np.broadcast_to(h, pencil.shape).copy())
    return c * float(np.sum(w * np.einsum("nij,nji->n", solved, solved).real))


@pytest.mark.parametrize("low,high,normalize", [(0.1, 3.0, False), (0.1, 3.0, True),
                                                 (1e-4, 1.0, False), (1e-3, 3.0, True)])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 8, 16, 32, 64])
def test_resolvent_quadrature_is_accurate_across_spectra(low, high, normalize, dim):
    # Up to dimension 6 against 40-digit arithmetic; above that against the
    # kernel form and the same rule at twice the nodes.
    for index in range(3):
        rng = RngStream(97, dim * 10 + index)
        a = random_pd(dim, rng, (low, high))
        if normalize:
            a = a / np.trace(a).real
        h = random_hermitian(dim, rng)
        got = log_quad_form_quadrature(a, h)
        if dim <= 6:
            exact = _mp_log_quad_form(a, h)
            assert abs(got - exact) <= 1e-12 * abs(exact)
        lam = np.linalg.eigvalsh(a)
        doubled = _centred_resolvent_rule(a, h, 2 * resolvent_nodes(lam[0], lam[-1]))
        assert abs(got - doubled) <= 1e-12 * abs(doubled)
        assert abs(got - quad_form(T_LOG_T, a, h)) <= 1e-12 * abs(got)


def test_resolvent_nodes_follow_the_condition_number():
    assert resolvent_nodes(2.0, 2.0) == RESOLVENT_NODES[0] == 8
    counts = [resolvent_nodes(1.0, kappa) for kappa in np.logspace(0, 9, 50)]
    assert counts == sorted(counts)
    assert set(counts) <= set(RESOLVENT_NODES)
    assert resolvent_nodes(0.1, 3.0) == 23  # the default spectrum range
    assert resolvent_nodes(1e-300, 1e-291) == resolvent_nodes(1.0, 1e9) == RESOLVENT_NODES[-1]
    with pytest.raises(NumericError, match="nodes at condition number 1e\\+10"):
        resolvent_nodes(1.0, 1e10)


def _pole_rule(mpmath, z, n: int):
    # The n-node Gauss-Legendre rule on [-1, 1] applied to 1/(z - x), and its
    # z-derivative: the n-th convergent 2/(z - b1/(z - b2/(z - ...))) of the
    # Jacobi continued fraction of the Legendre weight, b_k = k^2/(4k^2 - 1),
    # evaluated from its tail.  It costs n steps whatever the node count.
    tail = dtail = mpmath.mpf(0)
    for k in range(n - 1, 0, -1):
        b = mpmath.mpf(k * k) / (4 * k * k - 1)
        tail, dtail = b / (z - tail), -b * (1 - dtail) / (z - tail) ** 2
    return 2 / (z - tail), -2 * (1 - dtail) / (z - tail) ** 2


def _resolvent_truncation(mpmath, kappa: float, n: int) -> float:
    """Largest relative truncation error of the n-node centred resolvent rule
    over the terms (lo, lo), (lo, hi) and (hi, hi) of the spectrum {1, kappa},
    exact nodes and all, in the working precision.

    With x = 2u - 1 the centred term of (s, t) is
    2c/((c - s)(c - t)) * integral dx / ((z_s - x)(z_t - x)), z_s = (c + s)/(s - c):
    a difference of two poles for s != t and a double pole for s = t, whose
    rule errors come from ``_pole_rule`` and the exact log((z + 1)/(z - 1)).
    """
    lo, hi = mpmath.mpf(1), mpmath.mpf(kappa)
    c = mpmath.sqrt(hi)
    error = {}
    for s in (lo, hi):
        z = (c + s) / (s - c)
        rule, drule = _pole_rule(mpmath, z, n)
        error[s] = (mpmath.log((z + 1) / (z - 1)) - rule, 1 / (z + 1) - 1 / (z - 1) - drule)
    z_lo, z_hi = ((c + s) / (s - c) for s in (lo, hi))
    cross = 2 * c / ((c - lo) * (c - hi)) * (error[lo][0] - error[hi][0]) / (z_hi - z_lo)
    terms = [-2 * c / (c - s) ** 2 * error[s][1] * s for s in (lo, hi)]
    return float(max(abs(term) for term in terms + [cross / (mpmath.log(hi) / (hi - lo))]))


def test_resolvent_error_constant_is_fitted_over_the_allowed_condition_numbers():
    # At the count the model C rho**(-2n) = 1e-16 gives before the ladder
    # rounds it up, the largest error times rho**(2n) over condition numbers
    # from 1 to 1e9 is the fitted C: the library's constant must bound it (so
    # no count falls short) without a margin that only buys nodes.
    mpmath = pytest.importorskip("mpmath")
    constant = oracles.RESOLVENT_ERROR_CONSTANT
    fitted = 0.0
    with mpmath.workdps(40):
        for kappa in np.logspace(0.05, 9, 31):
            log_rho = 2.0 * math.atanh(kappa ** -0.25)
            n = math.ceil(math.log(1e16 * constant) / (2.0 * log_rho))
            assert resolvent_nodes(1.0, kappa) >= n
            fitted = max(fitted, _resolvent_truncation(mpmath, kappa, n) * math.exp(2.0 * n * log_rho))
    assert constant / 1.05 <= fitted <= constant


# (condition number, bound on the float64 rule's relative error at its count)
LEGGAUSS_FLOOR = [(1e4, 1e-12), (1e6, 1e-11), (1e9, 5e-9)]


@pytest.mark.parametrize("kappa,bound", LEGGAUSS_FLOOR)
def test_wide_spectrum_gap_of_the_resolvent_rule_is_numpys_weights(kappa, bound):
    # C8's gap grows with the condition number.  On the spectrum {1, kappa},
    # where eigh is exact and each solve one division, the float64 rule sits
    # within its bound of the 40-digit value; the same rule carried out in 40
    # digits on numpy's nodes and weights errs as much, to 1e-15; with exact
    # nodes and weights it errs by at most 1e-16.  So the gap is the error of
    # leggauss's nodes and weights, neither the truncation nor the solves, and
    # at the top rung it stays below C8's default tolerance.
    mpmath = pytest.importorskip("mpmath")
    a, h = np.diag([1.0, kappa]).astype(complex), np.ones((2, 2), dtype=complex)
    n = resolvent_nodes(1.0, kappa)
    got = log_quad_form_quadrature(a, h)
    x, w = gauss_legendre_unit(n)
    with mpmath.workdps(40):
        lo, hi, c = mpmath.mpf(1), mpmath.mpf(kappa), mpmath.sqrt(kappa)
        exact = 1 / lo + 1 / hi + 2 * mpmath.log(hi) / (hi - lo)
        rule = c * mpmath.fsum(wi * (1 / ((1 - xi) * lo + c * xi) + 1 / ((1 - xi) * hi + c * xi)) ** 2
                               for xi, wi in zip(map(mpmath.mpf, x.tolist()), map(mpmath.mpf, w.tolist())))
        truncation = _resolvent_truncation(mpmath, kappa, n)
        float_error, weights_error = (float(abs(value - exact) / exact) for value in (got, rule))
    assert float_error <= bound
    assert abs(float_error - weights_error) <= 1e-15
    assert truncation <= 1e-16
    assert float_error < CampaignConfig(campaign="C8").tolerance


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("smallest,largest,message", [
    (0.0, 1.0, "smallest bound is 0"), (-1.0, 1.0, "smallest bound is -1"),
    (math.nan, 1.0, "smallest bound is nan"), (1.0, math.nan, "smallest bound is nan"),
    (1.0, math.inf, "largest bound is inf"), (2.0, 1.0, "smallest <= largest, got 2 > 1"),
])
def test_resolvent_nodes_reject_a_spectrum_outside_their_domain(smallest, largest, message):
    # Unchecked, (0, 1) and (1, inf) overflow the node count, (nan, 1) and
    # (-1, 1) warn on the logarithms, and (2, 1) reads as a spectrum of
    # condition number 1/2.
    with pytest.raises(DomainError, match=re.escape(message)):
        resolvent_nodes(smallest, largest)
    with pytest.raises(DomainError, match=re.escape(message)):
        resolvent_nodes(np.array([0.1, smallest, 1.0]), np.array([3.0, largest, 1.0]))


def test_resolvent_quadrature_refuses_an_ill_conditioned_base_point():
    a = np.diag([1e-20, 1.0]).astype(complex)
    with pytest.raises(NumericError, match="at most 2048 are allowed"):
        log_quad_form_quadrature(a, np.eye(2, dtype=complex))


def _stack_across_rungs(dim: int):
    # Three draws each from spectra in [1, 1.01], [0.1, 3] and [1e-4, 1], as
    # a 3 x 3 stack, so that its matrices take at least two node counts.
    a, h = [], []
    for index, spectrum in enumerate([(1.0, 1.01), (0.1, 3.0), (1e-4, 1.0)] * 3):
        rng = RngStream(101, 10 * dim + index)
        a.append(random_pd(dim, rng, spectrum))
        h.append(random_hermitian(dim, rng))
    return np.stack(a).reshape(3, 3, dim, dim), np.stack(h).reshape(3, 3, dim, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("per_solve", [None, 1, 2], ids=["default", "one-per-solve", "two-per-solve"])
def test_resolvent_quadrature_of_a_stack_is_its_single_values_bitwise(monkeypatch, dim, per_solve):
    a, h = _stack_across_rungs(dim)
    spectra = np.linalg.eigvalsh(a)
    nodes = resolvent_nodes(spectra[..., 0], spectra[..., -1])
    assert nodes.shape == (3, 3)
    if dim > 1:
        assert len(set(nodes.flat)) >= 2
    singles = np.array([log_quad_form_quadrature(ai, hi) for ai, hi in zip(a.reshape(9, dim, dim),
                                                                            h.reshape(9, dim, dim))])
    assert nodes.reshape(9).tolist() == [resolvent_nodes(lam[0], lam[-1])
                                         for lam in spectra.reshape(9, dim)]
    if per_solve is not None:  # the budget of that many matrices' pencils at the top rung
        monkeypatch.setattr(oracles, "CHUNK_BYTES", per_solve * 16 * dim * dim * int(nodes.max()))
    got = log_quad_form_quadrature(a, h)
    assert got.shape == (3, 3)
    assert got.tobytes() == singles.reshape(3, 3).tobytes()
    assert type(log_quad_form_quadrature(a[0, 0], h[0, 0])) is float


def test_resolvent_quadrature_refuses_a_stack_with_one_ill_conditioned_matrix():
    a, h = _stack_across_rungs(2)
    a = a.reshape(9, 2, 2).copy()
    a[5] = np.diag([1e-12, 1.0])
    with pytest.raises(NumericError, match="condition number 1e\\+12"):
        log_quad_form_quadrature(a, h.reshape(9, 2, 2))
    # Of several, the message names the worst.
    with pytest.raises(NumericError, match="condition number 1e\\+20"):
        resolvent_nodes(np.array([0.1, 1e-12, 1e-20, 1e-15]), np.array([3.0, 1.0, 1.0, 1.0]))


def test_resolvent_quadrature_checks_its_stacks():
    a, h = _stack_across_rungs(2)
    with pytest.raises(DomainError, match="does not match"):
        log_quad_form_quadrature(a, h[0])
    with pytest.raises(DomainError, match="does not match"):
        log_quad_form_quadrature(a[0], h[0, 0])
    skewed = h.copy()
    skewed[1, 2, 0, 1] += 1e-3
    with pytest.raises(DomainError, match="direction is not stored Hermitian"):
        log_quad_form_quadrature(a, skewed)
    with pytest.raises(DomainError, match="base point is not stored Hermitian"):
        log_quad_form_quadrature(skewed, a)
    indefinite = a.copy()
    indefinite[2, 1] = np.diag([-1.0, 1.0])
    with pytest.raises(DomainError, match="positive definite base point"):
        log_quad_form_quadrature(indefinite, h)


def test_quad_form_is_trace_of_derivative():
    for a, h in _draws(4, 10, 67):
        direct = quad_form(T_LOG_T, a, h)
        via_trace = np.trace(h @ frechet_derivative(T_LOG_T, "f1", a, h)).real
        assert abs(direct - via_trace) <= 1e-10 * max(1.0, abs(via_trace))


@pytest.mark.parametrize("name,p", [("t_log_t", None), ("power", 1.0), ("power", 1.5), ("power", 2.0), ("square", None), ("cube", None)])
def test_quad_form_nonnegative_for_convex_f1(name, p):
    # Every builtin with nondecreasing f' has a nonnegative kernel; log does
    # not qualify (f'' < 0) and is checked separately below.
    func = by_name(name, p=p)
    for a, h in _draws(4, 10, 71):
        assert quad_form(func, a, h) >= -1e-12


def test_quad_form_log_is_negative():
    # The kernel of (log)' is -1/(st) < 0, so the form is negative definite.
    for a, h in _draws(3, 5, 73):
        assert quad_form(LOG, a, h) < 0.0


def test_quad_form_rejects_indefinite_base():
    rng = RngStream(79, 0)
    h = random_hermitian(2, rng)
    with pytest.raises(DomainError):
        quad_form(T_LOG_T, np.diag([1.0, 0.0]).astype(complex), h)


def test_quad_form_is_real_float():
    a, h = next(_draws(3, 1, 83))
    assert isinstance(quad_form(T_LOG_T, a, h), float)


# -- quadrature oracles -------------------------------------------------------


def test_gauss_legendre_unit_quality():
    nodes, weights = gauss_legendre_unit(64)
    assert nodes.shape == weights.shape == (64,)
    assert (nodes > 0).all() and (nodes < 1).all()
    assert abs(weights.sum() - 1.0) <= 1e-14
    # Exact for polynomials up to degree 127; probe a few moments.
    for k in (1, 2, 5, 20):
        assert abs((weights * nodes**k).sum() - 1.0 / (k + 1)) <= 1e-14


def test_gauss_legendre_unit_returns_the_same_read_only_rule():
    first = gauss_legendre_unit(128)
    again = gauss_legendre_unit(128)
    for computed, repeated in zip(first, again):
        assert np.array_equal(computed, repeated)
        assert not repeated.flags.writeable
        with pytest.raises(ValueError):
            repeated[0] = 0.5


def test_dd_log_quadrature_analytic_case():
    assert dd_log_quadrature(1.0, 3.0) == pytest.approx(math.log(3.0) / 2.0, abs=1e-12)


def test_dd_log_quadrature_is_accurate_over_the_c8_pair_range():
    mpmath = pytest.importorskip("mpmath")
    s, t = RngStream(5, 0).gen.uniform(0.1, 10.0, size=(2, 2000))
    s[:2], t[:2] = (0.1, 10.0), (10.0, 0.1)  # the widest ratio C8 can draw
    with mpmath.workdps(30):
        exact = np.array([float((mpmath.log(b) - mpmath.log(a)) / (mpmath.mpf(b) - a))
                          for a, b in zip(s, t)])
    assert np.max(np.abs(dd_log_quadrature(s, t) - exact) / exact) <= 1e-14


@pytest.mark.parametrize("s,t", [(1e200, 3e200), (1e-200, 3e-200), (1e-160, 3e-160), (1e154, 3e154)])
def test_dd_log_quadrature_is_accurate_near_the_float_limits(s, t):
    # s * t overflows or leaves the normal range at these pairs; the rule
    # runs on the pair divided by a power of two near its geometric mean.
    expected = divided_difference(LOG, "f", s, t)
    assert abs(dd_log_quadrature(s, t) - expected) <= 1e-15 * expected


def test_resolvent_quadrature_is_homogeneous_of_degree_minus_one():
    # A base point scaled by 2**k gives the reference scaled by 2**-k: bit
    # for bit where the eigensolver does not rescale the matrix itself, and
    # to two rounding errors where it does.
    a = random_pd(4, RngStream.chunk(3, range(6)), (0.1, 3.0))
    h = random_hermitian(4, RngStream.chunk(4, range(6)))
    reference = log_quad_form_quadrature(a, h)
    for k in (-1000, -600, -300, 300, 600, 1000):
        got = log_quad_form_quadrature(np.ldexp(a.view(float), k).view(complex), h)
        expected = np.ldexp(reference, -k)
        assert np.max(np.abs(got - expected) / expected) <= 2 * np.finfo(float).eps
        if abs(k) <= 300:
            assert got.tobytes() == expected.tobytes()


def test_central_difference_requires_positive_step():
    rng = RngStream(89, 0)
    a = random_pd(2, rng)
    h = random_hermitian(2, rng)
    with pytest.raises(DomainError):
        frechet_central_difference(T_LOG_T, a, h, step=0.0)
