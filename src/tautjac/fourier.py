"""Fourier transform on the genus-g quotient ring.

On the quotient modulo a :class:`~tautjac.ideal.RelationIdeal`,
multiplication e by p1 raises weight (nilpotent, since weight above the
genus vanishes) and the descent operator D lowers it, so both
exponentials below are finite sums and

    S = exp(e) exp(D) exp(e)

is exact.  Everything here is linear on the finite quotient, so it is
computed on the quotient basis, as integer column maps over a scale,
each column a basis monomial's image, read as codes and reduced with
no ``Poly`` formed.  The columns of e and D (normal forms have weight at most
g, so D is built at window g) give the columns of exp(e) and exp(D) by
their series, and S is held once, as one integer column map over a
scale.  S sends a (weight w, s-degree s) class to one of bidegree
(g - w + s, s), and S^2 = (-1)^g [-1]^*
where [-1]^* scales an s-homogeneous class by (-1)^s; both laws are
checked as identities on the integer columns.  S^{-1} has no map of its
own: its column at b is that of S with each row d signed
(-1)^g (-1)^{s(d)}.  The conjugation S op(m,n) S^{-1} = (-1)^n op(n,m)
is checked from the columns of the two members, shared between op(m,n)
and op(n,m), combined with those of S and S^{-1}.  Column combinations
run fraction free; a public method's result is divided once, at the
end.  The Pontryagin product is a * b = S^{-1}(S(a) S(b)); S(a) and
S(b) are normal forms, so only their term pairs of total weight at most
g are multiplied; before either is formed, the product is 0 if the
least row weight in the S columns of a's monomials plus that of b's
exceeds g (read from the columns, never from the degree law).
"""

from functools import cached_property
from math import gcd, lcm

from .errors import InvalidParameter, NotNilpotent, VerificationFailure, report_entry
from .ideal import _monomials
from .lie import LieContext, density_op, descent_op, field_op
from .operators import _code, mul_op, term_weight_shift
from .poly import P_KIND, Poly, merged_terms, mono_mul, mono_sdeg, mono_str, mono_weight, p, qdiv

__all__ = [
    "FourierMap",
    "exp_apply",
    "minus_one_pullback",
]


def _check_poly(f):
    if not isinstance(f, Poly):
        raise InvalidParameter("expected a Poly, got %s" % type(f).__name__)


def _combine(columns, vec):
    """The combination sum of vec[c] * columns[c] of the columns of an
    integer column map (basis monomial -> its image's coefficients by
    basis monomial), zeros dropped."""
    out = {}
    get = out.get
    for c, x in vec.items():
        for d, y in columns[c].items():
            out[d] = get(d, 0) + x * y
    return {d: v for d, v in out.items() if v}


def _over_lcm(columns):
    """(scale, integer column map) in lowest terms from columns given as
    (integer vector, divisor): each column cut by the gcd of its divisor
    and entries, zeros dropped, then all put over the divisors' lcm."""
    cut = {b: (vec, gcd(div, *vec.values()), div) for b, (vec, div) in columns.items()}
    scale = lcm(1, *(div // content for _vec, content, div in cut.values()))
    out = {}
    for b, (vec, content, div) in cut.items():
        k = scale * content // div  # cut and rescaled in one pass
        out[b] = {d: c * k // content for d, c in vec.items() if c}
    return scale, out


def _exp_columns(scale, ints):
    """exp of the nilpotent map C = A / scale as (scale, integer column
    map), A an integer column map, one series per column, fraction free:
    the k-th term C^k b / k! is A^k b over scale^k k!, accumulated over
    that growing common denominator until A^k b is zero."""
    out = {}
    for b in ints:
        total = term = {b: 1}
        den = k = 1
        while True:
            term = _combine(ints, term)
            if not term:
                break
            total = merged_terms({d: c * scale * k for d, c in total.items()}, term, 1)
            den *= scale * k
            k += 1
        out[b] = total, den
    return _over_lcm(out)


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
        self.genus = ideal.genus
        self.ctx = LieContext(ideal.genus, ideal.genus)
        self._members = {}  # (family, m, n) -> the member's scaled column map

    def _columns(self, op):
        """An operator on the quotient as (scale, integer column map): basis monomial ->
        its image's codes in per-weight index vectors, reduced.  Each basis monomial is
        imaged by e, D and every member, so its code and hits are kept per process."""
        place, reduce, cols = self._places.get, self.ideal.reduce_indexed, {}
        for b in self._bidegrees:
            vecs = {}
            for code, c in op.image_codes(b, keep=True).items():
                if c and (at := place(code)):
                    vecs.setdefault(at[0], {})[at[1]] = c
            cols[b] = reduce(vecs)
        return _over_lcm(cols)

    @cached_property
    def _s_map(self):
        """S on the quotient basis as (scale, integer column map), in
        :meth:`quotient_basis` order, built on first use from the columns
        of e and D (one image of each per basis monomial): S(b) is exp(e)
        of exp(D) of the exp(e) column of b, in integers over the product
        of the three scales, then in lowest terms."""
        r_scale, r_ints = _exp_columns(*self._columns(mul_op(p(1))))
        l_scale, l_ints = _exp_columns(*self._columns(descent_op(self.ctx)))
        scale = r_scale * l_scale * r_scale
        cols = {m: _combine(r_ints, _combine(l_ints, col)) for m, col in r_ints.items()}
        return _over_lcm({m: (col, scale) for m, col in cols.items()})

    @cached_property
    def _places(self):
        """Multiplier code -> (weight, index) of every monomial of weight <= g."""
        return {_code(m): (w, i) for w in range(self.genus + 1)
                for i, m in enumerate(_monomials(w)[0])}

    @cached_property
    def _bidegrees(self):
        """The quotient basis, built once, in order: basis monomial -> (weight,
        sdeg, the sign (-1)^g (-1)^sdeg of its row in S^{-1})."""
        g = self.genus
        return {m: (w, s, -1 if (g + s) % 2 else 1)
                for w in range(g + 1) for m in self.ideal.quotient_basis(w) for s in [mono_sdeg(m)]}

    @cached_property
    def _column_lows(self):
        """Basis monomial -> the least row weight of its column of S (g + 1 if empty)."""
        empty = self.genus + 1
        return {m: min(map(mono_weight, col), default=empty) for m, col in self._s_map[1].items()}

    def _lowest_image_weight(self, f):
        """A lower bound on the weights of S(f): -1 if f has a monomial off
        the basis (its reduction is not read), g + 1 for f = 0."""
        _check_poly(f)
        return min((self._column_lows.get(m, -1) for m in f.terms), default=self.genus + 1)

    def _image(self, f):
        """S(f) as (integer vector, divisor): the columns of S combined
        over f cleared of denominators, reduced unless it is already a
        combination of basis monomials."""
        _check_poly(f)
        scale, cols = self._s_map
        den = lcm(*[c.denominator for c in f.terms.values()])
        vec = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
        if not all(m in cols for m in vec):
            vec, div = self.ideal.reduce(vec)
            den *= div
        return _combine(cols, vec), den * scale

    def _divided(self, vec, divisor, inverse=False):
        """vec / divisor as a polynomial; with ``inverse``, each row d
        signed (-1)^g (-1)^{s(d)}, which turns S into S^{-1}."""
        signs = self._bidegrees
        return Poly({d: qdiv(signs[d][2] * c if inverse else c, divisor) for d, c in vec.items()})

    def transform(self, f):
        """S(f) in normal form: the integer columns of S over the normal
        form of f (S is linear and kills the ideal), divided once."""
        return self._divided(*self._image(f))

    def inverse(self, f):
        """S^{-1}(f) = (-1)^g [-1]^* S(f)."""
        return self._divided(*self._image(f), inverse=True)

    def pontryagin(self, a, b):
        """Convolution product: S^{-1}(S(a) S(b)).  It is 0, no image
        formed, when the least weights S(a) and S(b) can have (read from
        S's columns) sum above g.  Else only the term pairs of total weight
        <= g of the integer images are multiplied (the ideal kills every
        heavier one), and S^{-1} of the product's reduction is divided once."""
        g = self.genus
        if self._lowest_image_weight(a) + self._lowest_image_weight(b) > g:
            return Poly()
        (left, l_div), (right, r_div) = self._image(a), self._image(b)
        grading, out = self._bidegrees, {}
        for ma, ca in left.items():
            room = g - grading[ma][0]
            for mb, cb in right.items():
                if grading[mb][0] <= room:
                    m = mono_mul(ma, mb)
                    out[m] = out.get(m, 0) + ca * cb
        if not out:
            return Poly()
        vec, div = self.ideal.reduce(out)
        scale, cols = self._s_map
        return self._divided(_combine(cols, vec), scale * div * l_div * r_div, inverse=True)

    def unit(self):
        """The Pontryagin unit S^{-1}(1)."""
        return self.inverse(Poly.one())

    def quotient_basis(self):
        """(weight, sdeg, monomial) for the full quotient basis, weights
        ascending, monomials descending within a weight, as a new list."""
        return [(w, s, m) for m, (w, s, _sign) in self._bidegrees.items()]

    def _basis_failures(self, identity, residual):
        """Failing entries of an identity on the columns of S:
        ``residual(w, s, b, column of b)`` is a failure's text, or empty."""
        failures = []
        for m, col in self._s_map[1].items():
            w, s, _sign = self._bidegrees[m]
            bad = residual(w, s, m, col)
            if bad:
                params = {"weight": w, "sdeg": s, "monomial": mono_str(m)}
                failures.append(
                    report_entry(identity, params, self.genus, self.ctx.window, "fail", bad)
                )
        return failures

    def check_degree_law(self):
        """S maps bidegree (w, s) to (g - w + s, s) on every quotient
        basis element: each column's rows lie in the one bidegree.
        Returns failing entries (empty when exact)."""
        def residual(w, s, _m, col):
            keys = {(mono_weight(d), mono_sdeg(d)) for d in col}
            ok = keys <= {(self.genus - w + s, s)}
            return "" if ok else "components %s" % sorted(keys)

        return self._basis_failures("S is bigraded (w,s) -> (g-w+s,s)", residual)

    def check_s2(self):
        """S^2 = (-1)^g [-1]^* on the quotient basis, as the column
        identity S(column of b) = (-1)^(g+s(b)) scale^2 b; a failure's
        text is the rational residual.  Returns failing entries."""
        scale, cols = self._s_map

        def residual(_w, _s, m, col):
            sign = self._bidegrees[m][2]
            if _combine(cols, col) == {m: sign * scale * scale}:
                return ""
            return str(self._divided(_combine(cols, col), scale * scale) - sign * Poly.monomial(m))

        return self._basis_failures("S^2 = (-1)^g [-1]^*", residual)

    def _member_columns(self, family, m, n):
        """The column map of op(m, n) of a family as an integer column
        map with its scale, built on first use."""
        key = (family, m, n)
        if key not in self._members:
            op = {"field": field_op, "density": density_op}[family](m, n, self.ctx)
            self._members[key] = self._columns(op)
        return self._members[key]

    def verify_conjugation(self, m, n, family="field"):
        """Check S o op(m,n) o S^{-1} = (-1)^n op(n,m) on every quotient
        basis element; raises VerificationFailure on the first mismatch.
        Both sides are combinations of integer columns: S o op of the
        columns of S and op(m,n), taken over S^{-1} of the basis element
        (the column of S with each row d signed (-1)^g (-1)^{s(d)}),
        against the column of op(n,m), each side times the other's
        scale.  Raises InvalidParameter for a family other than field or
        density, and for a pair whose member is zero by definition: a
        negative index, or a field pair with m + n < 2.  When both
        members vanish on the quotient, the check compares zero with zero
        and the entry's status is ``vacuous`` instead of ``ok``."""
        if family not in ("field", "density"):
            raise InvalidParameter("family must be field or density, got %r" % (family,))
        if min(m, n) < 0 or (family == "field" and m + n < 2):
            raise InvalidParameter(
                "%s(%d,%d) is zero by definition: indices must be >= 0%s"
                % (family, m, n, " with m + n >= 2" if family == "field" else "")
            )
        s_scale, s_cols = self._s_map
        grading = self._bidegrees
        op_scale, op_cols = self._member_columns(family, m, n)
        flip_scale, flip_cols = self._member_columns(family, n, m)
        conjugated = {b: _combine(s_cols, col) for b, col in op_cols.items()}
        scale = s_scale * op_scale * s_scale
        sign = -1 if n % 2 else 1
        name = "S %s(%d,%d) S^-1 = %s%s(%d,%d)" % (
            family, m, n, "-" if sign < 0 else "", family, n, m
        )
        for mono, col in s_cols.items():
            left = _combine(conjugated, {d: grading[d][2] * c for d, c in col.items()})
            right = flip_cols[mono]
            cross = {d: sign * scale * c for d, c in right.items()}
            if {d: flip_scale * c for d, c in left.items()} != cross:
                params = {"monomial": mono_str(mono), "weight": mono_weight(mono)}
                diff = self._divided(left, scale) - sign * self._divided(right, flip_scale)
                entry = report_entry(
                    name, params, self.genus, self.ctx.window, "fail", str(diff)
                )
                raise VerificationFailure(entry)
        params = {"basis_size": len(s_cols)}
        status = "ok" if any(op_cols.values()) or any(flip_cols.values()) else "vacuous"
        return [report_entry(name, params, self.genus, self.ctx.window, status)]
