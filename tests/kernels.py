"""The kernel set that computes a process's bits, named by its fingerprint.

numpy's bundled OpenBLAS picks its BLAS and LAPACK kernels by CPU, and numpy
picks its own SIMD loops by CPU; ``OPENBLAS_CORETYPE`` and
``NPY_ENABLE_CPU_FEATURES`` pick them for one process.  Report bytes follow
both, so each bit pin of the tests is recorded per kernel set, keyed by
:data:`FINGERPRINT`.
"""

import hashlib

import numpy as np
import pytest


def fingerprint() -> str:
    """SHA-256 of QR, eigh, solve and a product of one fixed 16x16 complex
    matrix, and of numpy's exp, log and power of its entries' magnitudes."""
    k = np.arange(256.0).reshape(16, 16)
    a = (29 * k % 101 - 50 + 1j * (41 * k % 97 - 48)) / 16.0
    h = a + a.conj().T
    x = np.abs(a).ravel()
    parts = (*np.linalg.qr(a), *np.linalg.eigh(h), np.linalg.solve(a, h), a @ h, np.exp(x), np.log(x), x**1.5)
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


FINGERPRINT = fingerprint()

# The kernel sets with recorded pins.  SKYLAKEX is the default on an x86 CPU
# with AVX-512: OpenBLAS's SkylakeX kernels and numpy's AVX-512 loops.
# HASWELL is the default on one with AVX2 but no AVX-512, AMD Zen 1-3
# included: OpenBLAS's Haswell kernels and numpy's x86-64-v3 loops, which any
# AVX2 CPU selects with OPENBLAS_CORETYPE=Haswell NPY_ENABLE_CPU_FEATURES=X86_V3.
# HASWELL_ON_AVX512 is what OPENBLAS_CORETYPE=Haswell alone selects on an
# AVX-512 CPU: the Haswell kernels and the AVX-512 loops.
SKYLAKEX = "e1ead29a0b828966c5d87ae1066fab3af001252812b1f355baf4cc85000d0b1d"
HASWELL = "b544ca3267ea6b0d6b4f665d0d746b20c584ad3e3f456540030cb611163923ab"
HASWELL_ON_AVX512 = "6c6bdada14eca945091c44cf978990690676cc8a4ea8dd41dc18d419e24eb7b1"


def recorded(pins: dict):
    """``pins[FINGERPRINT]``, the values recorded on this kernel set.  On a set
    with none, the test fails naming its fingerprint: a bit pin holds on the
    kernel set it was recorded on, and no tolerance stands in for it."""
    if FINGERPRINT not in pins:
        pytest.fail(f"no bit pins are recorded for kernel fingerprint {FINGERPRINT}")
    return pins[FINGERPRINT]
