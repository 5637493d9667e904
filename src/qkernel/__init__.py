"""Numerical q-series toolkit: q-shifted factorials, basic hypergeometric
series, Jackson q-calculus, q-orthogonal polynomial families, trigonometric
q-beta integrals, and a harness that certifies the classical identities
relating them by computing both sides independently."""

from .errors import (
    DomainError,
    PoleInDenominator,
    QKernelError,
    QuadratureNotConverged,
    TruncationExceeded,
    UnknownIdentity,
)
from .qcore import (
    h_weight,
    poch_finite,
    poch_infinite,
    poch_ratio,
)
from .hyperseries import SeriesResult, SeriesSpec, eval_phi, eval_w, eval_wp_limit
from .qcalculus import (
    q_derivative,
    q_derivative_n,
    q_integral,
    liu_coefficient,
    liu_double_coefficient,
    liu_double_reconstruct,
    liu_reconstruct,
)
from .polyfamilies import (
    AWParams,
    BigQJacobiParams,
    QHahnParams,
    askey_wilson_poly,
    big_qjacobi_poly,
    qhahn_A,
    qhahn_K,
    qhahn_L,
    qhahn_L0,
    qhahn_poly,
)
from .qintegrals import WeightSpec, trig_integral
from .identities import (
    IdentityReport,
    check_identity,
    check_orthogonality_big_qjacobi,
    check_orthogonality_qhahn,
    identity_ids,
    run_suite,
    sample_params,
    summarize,
)

__version__ = "0.1.0"
