"""Matrix-function calculus on Hermitian matrices with seeded randomized
certification of entropy-gap convexity and monotonicity."""

from .errors import DomainError, NumericError
from .linalg import (
    MAX_DIM,
    RngStream,
    SpectralDecomposition,
    check_hermitian,
    check_positive,
    eigh,
    hermitize,
    random_hermitian,
    random_pd,
    random_unitary,
)
from .calculus import (
    BUILTIN_NAMES,
    CUBE,
    IDENTITY,
    LOG,
    SQUARE,
    T_LOG_T,
    ScalarFunction,
    by_name,
    divided_difference,
    frechet_derivative,
    loewner,
    matrix_function,
    power,
    quad_form,
)
from .oracles import (
    dd_log_quadrature,
    gauss_legendre_unit,
    log_quad_form_quadrature,
)
from .bipartite import (
    MAX_PINCHING_BLOCKS,
    BipartiteSpace,
    ConditionalExpectation1,
    MixedUnitaryChannel,
    Pinching,
    apply_channel,
    conditional_expectation_1,
    embed_1,
    partial_trace_2,
    random_mixed_unitary,
    random_pinching,
)
from .entropy import (
    EntropyGapSpec,
    entropy_gap,
    second_differential_spectral,
    von_neumann_entropy,
)
from .campaigns import (
    CAMPAIGN_IDS,
    CHANNEL_FAMILIES,
    CampaignConfig,
    CampaignReport,
    replay,
    run_campaign,
)
from .report import (
    emit_report,
    emit_reports,
    load_report,
    load_reports,
    matrix_from_json,
    matrix_to_json,
    render_report,
    report_from_dict,
    report_to_dict,
)

__version__ = "0.1.0"
