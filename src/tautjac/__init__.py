"""Exact symbolic engine for the tautological ring of a Jacobian.

The ring is modeled as Q[p1, p2, ..., q1, q2, ...] with its weight and
s-degree bigrading; a Lie algebra of normal-ordered differential
operators acts on it, the genus-g relation ideal is generated by
closure under the weight-lowering descent operator, and the Fourier
transform is realized by nilpotent operator exponentials on the
quotient.  Everything is exact rational arithmetic; there is no
floating-point mode.
"""

from .errors import (
    IndexZeroError,
    InvalidGenus,
    InvalidParameter,
    NotNilpotent,
    ParseError,
    TautjacError,
    VerificationFailure,
    WindowExceeded,
)
from .fourier import FourierMap, exp_apply, minus_one_pullback
from .ideal import RelationIdeal
from .lie import (
    LieContext,
    cartan_eigenvalue,
    density_op,
    descent_op,
    field_op,
    raw_field_op,
    run_bracket_suite,
    sl2_triple,
    verify_bracket,
)
from .newton import d_to_w, w_to_d
from .operators import Operator, mul_op
from .parse import parse_poly
from .poly import Poly, enumerate_monomials, p, q

__version__ = "0.1.0"

__all__ = [
    "FourierMap",
    "IndexZeroError",
    "InvalidGenus",
    "InvalidParameter",
    "LieContext",
    "NotNilpotent",
    "Operator",
    "ParseError",
    "Poly",
    "RelationIdeal",
    "TautjacError",
    "VerificationFailure",
    "WindowExceeded",
    "cartan_eigenvalue",
    "d_to_w",
    "density_op",
    "descent_op",
    "enumerate_monomials",
    "exp_apply",
    "field_op",
    "minus_one_pullback",
    "mul_op",
    "p",
    "parse_poly",
    "q",
    "raw_field_op",
    "run_bracket_suite",
    "sl2_triple",
    "verify_bracket",
    "w_to_d",
]
