"""Exact symbolic engine for the tautological ring of a Jacobian.

The ring is modeled as Q[p1, p2, ..., q1, q2, ...] with its weight and
s-degree bigrading; a Lie algebra of normal-ordered differential
operators acts on it, the genus-g relation ideal is generated by
closure under the weight-lowering descent operator, and the Fourier
transform is realized by nilpotent operator exponentials on the
quotient.  Everything is exact rational arithmetic; there is no
floating-point mode.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it; each module is imported on
# first use of one of its names (PEP 562), so a caller of one layer does
# not pay for the others
_EXPORTS = {
    "errors": (
        "IndexZeroError", "InvalidGenus", "InvalidParameter", "ParseError",
        "TautjacError", "VerificationFailure", "WindowExceeded",
    ),
    "fourier": ("FourierMap",),
    "ideal": ("RelationIdeal",),
    "lie": (
        "LieContext", "cartan_eigenvalue", "density_op", "descent_op", "field_op",
        "raw_field_op", "run_bracket_suite", "sl2_triple", "verify_bracket",
    ),
    "newton": ("d_to_w", "w_to_d"),
    "operators": ("Operator", "mul_op"),
    "parse": ("parse_poly",),
    "poly": ("Poly", "enumerate_monomials", "p", "q"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_MODULE_OF)
