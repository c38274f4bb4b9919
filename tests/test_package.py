"""The package's public surface."""

import inspect

import entropygap
from entropygap import bipartite, entropy, linalg, oracles

PUBLIC_NAMES = (
    "BUILTIN_NAMES", "BipartiteSpace", "CAMPAIGN_IDS", "CHANNEL_FAMILIES", "CUBE", "CampaignConfig",
    "CampaignReport", "ConditionalExpectation1", "DomainError", "EntropyGapSpec", "IDENTITY", "LOG",
    "MAX_DIM", "MAX_PINCHING_BLOCKS", "MixedUnitaryChannel", "NumericError", "Pinching", "RngStream",
    "SQUARE", "ScalarFunction", "SpectralDecomposition", "T_LOG_T", "apply_channel", "by_name",
    "check_hermitian", "check_positive", "conditional_expectation_1", "dd_log_quadrature",
    "divided_difference", "eigh", "embed_1", "emit_report", "emit_reports", "entropy_gap",
    "frechet_derivative", "gauss_legendre_unit", "hermitize", "load_report", "load_reports", "loewner",
    "log_quad_form_quadrature", "matrix_from_json", "matrix_function", "matrix_to_json",
    "partial_trace_2", "power", "quad_form", "random_hermitian", "random_mixed_unitary", "random_pd",
    "random_pinching", "random_unitary", "render_report", "replay", "report_from_dict", "report_to_dict",
    "run_campaign", "second_differential_spectral", "von_neumann_entropy",
)


def test_public_names_are_the_listed_ones():
    # Adding or removing a public name edits this tuple, so the surface
    # changes only on purpose.
    public = sorted(name for name, value in vars(entropygap).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert tuple(public) == PUBLIC_NAMES
    assert list(PUBLIC_NAMES) == sorted(PUBLIC_NAMES)


def test_removed_names_are_gone_from_their_modules():
    # The finite-difference references live in tests/references.py only.
    removed = {linalg: ("kron", "is_stored_hermitian"), bipartite: ("partial_trace_1",),
               entropy: ("second_differential_fd", "second_differential_fd_auto"),
               oracles: ("frechet_central_difference",)}
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
