"""Fourier transform on the genus-g quotient ring.

On the quotient modulo a :class:`~tautjac.ideal.RelationIdeal`,
multiplication by p1 raises weight (nilpotent, since weight above the
genus vanishes) and the descent operator lowers it, so both
exponentials below are finite sums and

    S = exp(e) exp(D) exp(e)

is exact.  S is linear on the finite-dimensional quotient, so it is
held once, as its images of the quotient basis, built on first use by
the three series of :func:`exp_apply` (reducing to normal form after
every step; normal forms have weight at most g, so the operators are
built at window g).  S sends a (weight w, s-degree s) class to one of
bidegree (g - w + s, s), and S^2 = (-1)^g [-1]^* where [-1]^* scales an
s-homogeneous class by (-1)^s.  The Pontryagin product is realized
through S: a * b = S^{-1}(S(a) S(b)).
"""

from functools import cached_property

from .errors import InvalidParameter, NotNilpotent, VerificationFailure, report_entry
from .lie import LieContext, density_op, descent_op, field_op
from .operators import mul_op, term_weight_shift
from .poly import P_KIND, Poly, mono_sdeg, mono_weight, p

__all__ = [
    "FourierMap",
    "exp_apply",
    "minus_one_pullback",
]


def minus_one_pullback(f):
    """Pullback along the inversion of the group: each (w, s)-component
    is scaled by (-1)**s."""
    return Poly(
        {m: -c if mono_sdeg(m) % 2 else c for m, c in f.terms.items()}
    )


def exp_apply(op, f, ideal=None):
    """Apply exp(op) = sum op^k / k! to a polynomial, reducing to normal
    form after each step when an ideal is supplied.

    Termination is guaranteed statically: every term of ``op`` must
    either lower weight, raise weight (allowed only over a quotient,
    where weights above the genus die), or preserve weight while
    strictly lowering the p-degree.  Mixing weight-raising and
    weight-lowering terms is rejected.
    """
    raises = lowers = False
    for mult, parts in op.terms:
        shift = term_weight_shift((mult, parts))
        if shift > 0:
            raises = True
        elif shift < 0:
            lowers = True
        else:
            pdrop = sum(e for _i, k, e in mult if k == P_KIND) - sum(
                e for _i, k, e in parts if k == P_KIND
            )
            if pdrop >= 0:
                raise NotNilpotent(
                    "operator has a weight-preserving term that does not "
                    "lower the p-degree; exp would not terminate"
                )
    if raises and lowers:
        raise NotNilpotent(
            "operator mixes weight-raising and weight-lowering terms"
        )
    if raises and ideal is None:
        raise NotNilpotent(
            "weight-raising exponential terminates only on a quotient; "
            "supply a relation ideal"
        )
    reduce = ideal.normal_form if ideal is not None else (lambda x: x)
    current = reduce(f)
    total = current
    k = 1
    while current.terms:
        current = reduce(op.apply(current)) / k
        total = total + current
        k += 1
    return total


class FourierMap:
    """The transform S and the Pontryagin product over a fixed
    relation ideal."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.ctx = LieContext(ideal.genus, ideal.genus)

    @property
    def genus(self):
        return self.ideal.genus

    @cached_property
    def images(self):
        """S on the quotient basis: basis monomial -> S(monomial) in
        normal form, in :meth:`quotient_basis` order.  Built on first
        use, one pass of the three series per monomial."""
        raising, descent = mul_op(p(1)), descent_op(self.ctx)
        out = {}
        for _w, _s, m in self.quotient_basis():
            img = exp_apply(raising, Poly.monomial(m), self.ideal)
            img = exp_apply(descent, img, self.ideal)
            out[m] = exp_apply(raising, img, self.ideal)
        return out

    def transform(self, f):
        """S(f) in normal form: the combination of the basis images over
        the normal form of f (S is linear and kills the ideal)."""
        out = {}
        for m, c in self.ideal.normal_form(f).terms.items():
            for m2, c2 in self.images[m].terms.items():
                out[m2] = out.get(m2, 0) + c * c2
        return Poly(out)

    def inverse(self, f):
        """S^{-1}(f) = (-1)^g [-1]^* S(f)."""
        sign = -1 if self.genus % 2 else 1
        return sign * minus_one_pullback(self.transform(f))

    def pontryagin(self, a, b):
        """Convolution product: S^{-1}(S(a) S(b)).  The intermediate
        product can reach weight 2g; S^{-1} reduces it first."""
        return self.inverse(self.transform(a) * self.transform(b))

    def unit(self):
        """The Pontryagin unit S^{-1}(1)."""
        return self.inverse(Poly.one())

    def quotient_basis(self):
        """(weight, sdeg, monomial) for the full quotient basis, weights
        ascending, monomials descending within a weight."""
        out = []
        for w in range(self.genus + 1):
            for m in self.ideal.quotient_basis(w):
                out.append((w, mono_sdeg(m), m))
        return out

    def _basis_failures(self, identity, residual):
        """Failing entries of an identity on the quotient basis:
        ``residual(w, s, b, S(b))`` is a failure's text, or empty."""
        failures = []
        for m, img in self.images.items():
            w, s, b = mono_weight(m), mono_sdeg(m), Poly.monomial(m)
            bad = residual(w, s, b, img)
            if bad:
                params = {"weight": w, "sdeg": s, "monomial": str(b)}
                failures.append(
                    report_entry(identity, params, self.genus, self.ctx.window, "fail", bad)
                )
        return failures

    def check_degree_law(self):
        """S maps bidegree (w, s) to (g - w + s, s) on every quotient
        basis element; returns failing entries (empty when exact)."""
        def residual(w, s, _b, img):
            keys = set(img.graded())
            ok = keys <= {(self.genus - w + s, s)}
            return "" if ok else "components %s" % sorted(keys)

        return self._basis_failures("S is bigraded (w,s) -> (g-w+s,s)", residual)

    def check_s2(self):
        """S^2 = (-1)^g [-1]^* on the quotient basis.  Returns failing
        entries (empty when exact)."""
        sign = -1 if self.genus % 2 else 1

        def residual(_w, _s, b, img):
            diff = self.transform(img) - sign * minus_one_pullback(b)
            return str(diff) if diff else ""

        return self._basis_failures("S^2 = (-1)^g [-1]^*", residual)

    def verify_conjugation(self, m, n, family="field"):
        """Check S o op(m,n) o S^{-1} = (-1)^n op(n,m) on every quotient
        basis element; raises VerificationFailure on the first mismatch.
        Raises InvalidParameter for a family other than field or
        density, and for a pair whose member is zero by definition: a
        negative index, or a field pair with m + n < 2."""
        ctor = {"field": field_op, "density": density_op}.get(family)
        if ctor is None:
            raise InvalidParameter("family must be field or density, got %r" % (family,))
        if min(m, n) < 0 or (family == "field" and m + n < 2):
            raise InvalidParameter(
                "%s(%d,%d) is zero by definition: indices must be >= 0%s"
                % (family, m, n, " with m + n >= 2" if family == "field" else "")
            )
        op = ctor(m, n, self.ctx)
        flipped = ctor(n, m, self.ctx)
        sign = -1 if n % 2 else 1
        name = "S %s(%d,%d) S^-1 = %s%s(%d,%d)" % (
            family, m, n, "-" if sign < 0 else "", family, n, m
        )
        for mono in self.images:
            b = Poly.monomial(mono)
            left = self.transform(op.apply(self.inverse(b)))
            right = sign * self.ideal.normal_form(flipped.apply(b))
            if left != right:
                params = {"monomial": str(b), "weight": mono_weight(mono)}
                entry = report_entry(
                    name, params, self.genus, self.ctx.window, "fail", str(left - right)
                )
                raise VerificationFailure(entry, None)
        params = {"basis_size": len(self.images)}
        return [report_entry(name, params, self.genus, self.ctx.window)]
