"""Fourier transform on the genus-g quotient ring.

On the quotient modulo a :class:`~tautjac.ideal.RelationIdeal`,
multiplication e by p1 raises weight (nilpotent, since weight above the
genus vanishes) and the descent operator D lowers it, so both
exponentials below are finite sums and

    S = exp(e) exp(D) exp(e)

is exact.  Everything here is linear on the finite quotient, so it is
computed on the quotient basis, a basis element being its position in
``quotient_basis``, as integer column maps over a scale.  A column is a
basis element's image, read as codes with no ``Poly`` formed, and put in
normal form from one table that substitutes only the pivots it meets; a
basis monomial that the operator's least term shift sends above g is
not imaged.  The columns of e and D (D at window g) give those of exp(e)
and exp(D) by their series, and S is held once, as one integer column
map over a scale.  S sends a (weight w, s-degree s) class to one of
bidegree (g - w + s, s), and S^2 = (-1)^g [-1]^*, where [-1]^* scales an
s-homogeneous class by (-1)^s; both laws are checked as identities on
the columns.  S^{-1} has no map of its own: only ``inverse`` and
``pontryagin`` read it, as the column of S with each row d signed
(-1)^g (-1)^{s(d)}.  The conjugation S op(m,n) S^{-1} = (-1)^n op(n,m)
is checked as the equivalent S op(m,n) = (-1)^n op(n,m) S, one basis
element at a time, on the columns of S and of the two members (built
once per map, shared by op(m,n) and op(n,m)).  Column combinations run
fraction free; a public method's result is divided once, at the end.
The Pontryagin product is a * b = S^{-1}(S(a) S(b)); only the term pairs
of S(a) and S(b) of total weight at most g are multiplied, and the
product is 0, neither image formed, if the least row weights in the S
columns of a's and of b's monomials sum above g.
"""

from functools import cached_property
from math import gcd, lcm

from .errors import InvalidParameter, VerificationFailure, report_entry
from .ideal import _monomials
from .lie import LieContext, density_op, descent_op, field_op
from .operators import _code, mul_op, term_weight_shift
from .poly import Poly, check_poly, merged_terms, mono_mul, mono_sdeg, mono_str, p, qdiv

__all__ = ["FourierMap"]


def _combine(columns, vec):
    """The combination sum of vec[c] * columns[c] of the columns of an
    integer column map (basis element -> its image's coefficients by basis
    element), zeros dropped."""
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


class FourierMap:
    """The transform S and the Pontryagin product over a fixed
    relation ideal."""

    def __init__(self, ideal):
        self.ideal = ideal
        self.genus = ideal.genus
        self.ctx = LieContext(ideal.genus, ideal.genus)
        self._members = {}  # (family, m, n) -> the member's scaled column map

    def _columns(self, op):
        """An operator on the quotient as (scale, integer column map), one pass
        per basis element: its image read as codes and put in normal form, or
        empty, not formed, if op's least term shift sends it above g.  e, D and
        every member image each basis monomial, so its hits are kept per process."""
        cols, top = {}, self.genus - min(map(term_weight_shift, op.terms), default=0)
        for b, (w, _s, _sign, mono) in enumerate(self._basis):
            cols[b] = self._reduced(op.image_codes(mono, keep=True) if w <= top else {})
        return _over_lcm(cols)

    @cached_property
    def _s_map(self):
        """S as (scale, integer column map), built on first use from the columns
        of e and D: S(b) is exp(e) of exp(D) of the exp(e) column of b, in integers
        over the product of the three scales, then in lowest terms."""
        r_scale, r_ints = _exp_columns(*self._columns(mul_op(p(1))))
        l_scale, l_ints = _exp_columns(*self._columns(descent_op(self.ctx)))
        scale = r_scale * l_scale * r_scale
        cols = {b: _combine(r_ints, _combine(l_ints, col)) for b, col in r_ints.items()}
        return _over_lcm({b: (col, scale) for b, col in cols.items()})

    @cached_property
    def _basis(self):
        """The quotient basis in order, a basis element being its position: (weight,
        sdeg, the sign (-1)^g (-1)^sdeg of its row in S^{-1}, monomial)."""
        g = self.genus
        return [(w, s, -1 if (g + s) % 2 else 1, m)
                for w in range(g + 1) for m in self.ideal.quotient_basis(w) for s in [mono_sdeg(m)]]

    @cached_property
    def _forms(self):
        """The normal form of each monomial of weight <= g, keyed by the monomial
        and by its multiplier code, as (lead, integer vector over basis positions)
        = vector / lead: a basis monomial is itself over 1, a pivot minus the rest
        of its primitive RREF row over the row's pivot coefficient."""
        position = {m: b for b, (*_wss, m) in enumerate(self._basis)}
        forms = {m: (1, {b: 1}) for m, b in position.items()}
        for w in range(self.genus + 1):
            mons = _monomials(w)[0]
            for i, row in self.ideal.spaces[w].pivots.items():
                forms[mons[i]] = row[i], {position[mons[j]]: -c for j, c in row.items() if j != i}
        forms.update([(_code(m), form) for m, form in forms.items()])
        return forms

    def _reduced(self, terms):
        """``RelationIdeal.reduce`` of monomial (or code) -> int terms, over basis
        positions: terms above weight g drop out, and the divisor is the lcm of
        the leads of the pivots hit."""
        forms, out = self._forms, {}
        hits = [(forms[k], c) for k, c in terms.items() if c and k in forms]
        div, get = lcm(*[lead for (lead, _vec), _c in hits]), out.get
        for (lead, vec), c in hits:
            c *= div // lead
            for d, x in vec.items():
                out[d] = get(d, 0) + c * x
        return ({d: x for d, x in out.items() if x} if 0 in out.values() else out), div

    @cached_property
    def _column_lows(self):
        """Basis monomial -> the least row weight of its column of S (g + 1 if empty)."""
        basis = self._basis
        return {basis[b][3]: min((basis[d][0] for d in col), default=self.genus + 1)
                for b, col in self._s_map[1].items()}

    def _lowest_image_weight(self, f):
        """A lower bound on the weights of S(f): -1 if f has a monomial off
        the basis (its reduction is not read), g + 1 for f = 0."""
        check_poly(f)
        return min((self._column_lows.get(m, -1) for m in f.terms), default=self.genus + 1)

    def _image(self, f):
        """S(f) as (integer vector, divisor): the columns of S combined over
        the normal form of f cleared of denominators."""
        check_poly(f)
        den = lcm(*[c.denominator for c in f.terms.values()])
        ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
        vec, div = self._reduced(ints)
        scale, cols = self._s_map
        return _combine(cols, vec), den * div * scale

    def _divided(self, vec, divisor, inverse=False):
        """vec / divisor as a polynomial; with ``inverse``, each row d
        signed (-1)^g (-1)^{s(d)}, which turns S into S^{-1}."""
        basis = self._basis
        return Poly({basis[d][3]: qdiv(basis[d][2] * c if inverse else c, divisor)
                     for d, c in vec.items()})

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
        basis, out = self._basis, {}
        for da, ca in left.items():
            room, ma = g - basis[da][0], basis[da][3]
            for db, cb in right.items():
                if basis[db][0] <= room:
                    m = mono_mul(ma, basis[db][3])
                    out[m] = out.get(m, 0) + ca * cb
        vec, div = self._reduced(out)
        scale, cols = self._s_map
        return self._divided(_combine(cols, vec), scale * div * l_div * r_div, inverse=True)

    def unit(self):
        """The Pontryagin unit S^{-1}(1)."""
        return self.inverse(Poly.one())

    def quotient_basis(self):
        """(weight, sdeg, monomial) for the full quotient basis, weights
        ascending, monomials descending within a weight, as a new list."""
        return [(w, s, m) for w, s, _sign, m in self._basis]

    def _basis_failures(self, identity, residual):
        """Failing entries of an identity on the columns of S:
        ``residual(w, s, b, column of b)`` is a failure's text, or empty."""
        failures = []
        for b, col in self._s_map[1].items():
            w, s, _sign, m = self._basis[b]
            bad = residual(w, s, b, col)
            if bad:
                params = {"weight": w, "sdeg": s, "monomial": mono_str(m)}
                failures.append(report_entry(identity, params, self.genus, self.ctx.window,
                                             "fail", bad))
        return failures

    def check_degree_law(self):
        """S maps bidegree (w, s) to (g - w + s, s) on every quotient
        basis element: each column's rows lie in the one bidegree.
        Returns failing entries (empty when exact)."""
        def residual(w, s, _b, col):
            keys = {self._basis[d][:2] for d in col}
            return "" if keys <= {(self.genus - w + s, s)} else "components %s" % sorted(keys)

        return self._basis_failures("S is bigraded (w,s) -> (g-w+s,s)", residual)

    def check_s2(self):
        """S^2 = (-1)^g [-1]^* on the quotient basis, as the column
        identity S(column of b) = (-1)^(g+s(b)) scale^2 b; a failure's
        text is the rational residual.  Returns failing entries."""
        scale, cols = self._s_map

        def residual(_w, _s, b, col):
            sign, mono = self._basis[b][2:]
            image = _combine(cols, col)
            if image == {b: sign * scale * scale}:
                return ""
            return str(self._divided(image, scale * scale) - sign * Poly.monomial(mono))

        return self._basis_failures("S^2 = (-1)^g [-1]^*", residual)

    def _member_columns(self, family, m, n):
        """op(m, n) of a family as (scale, integer column map), built on first use."""
        key = (family, m, n)
        if key not in self._members:
            op = {"field": field_op, "density": density_op}[family](m, n, self.ctx)
            self._members[key] = self._columns(op)
        return self._members[key]

    def verify_conjugation(self, m, n, family="field"):
        """Check S o op(m,n) o S^{-1} = (-1)^n op(n,m) as the equivalent
        S o op(m,n) = (-1)^n op(n,m) o S (S is invertible), basis element by
        basis element: S over the column of op(m,n) at b against op(n,m) over
        the column of S at b, each times the other member's scale; b is passed
        over when op(m,n) at b and op(n,m) on every row of S(b) are empty.
        The first b, in quotient-basis order, where the sides differ raises
        VerificationFailure with their difference.  Raises InvalidParameter
        for a family other than field or density, and for a member zero by
        definition (a negative index, or a field pair with m + n < 2).  When
        both members vanish on the quotient, the entry's status is ``vacuous``."""
        if family not in ("field", "density"):
            raise InvalidParameter("family must be field or density, got %r" % (family,))
        if min(m, n) < 0 or (family == "field" and m + n < 2):
            raise InvalidParameter("%s(%d,%d) is zero by definition: indices must be >= 0%s"
                                   % (family, m, n, " with m + n >= 2" * (family == "field")))
        s_scale, s_cols = self._s_map
        op_scale, op_cols = self._member_columns(family, m, n)
        flip_scale, flip_cols = self._member_columns(family, n, m)
        sign = -1 if n % 2 else 1
        name = "S %s(%d,%d) S^-1 = %s%s(%d,%d)" % (family, m, n, "-" * (sign < 0), family, n, m)
        for b, col in s_cols.items():
            if not op_cols[b] and not any(flip_cols[d] for d in col):
                continue
            left, right = _combine(s_cols, op_cols[b]), _combine(flip_cols, col)
            if ({d: flip_scale * c for d, c in left.items()}
                    != {d: sign * op_scale * c for d, c in right.items()}):
                params = {"monomial": mono_str(self._basis[b][3]), "weight": self._basis[b][0]}
                diff = (self._divided(left, s_scale * op_scale)
                        - sign * self._divided(right, s_scale * flip_scale))
                entry = report_entry(name, params, self.genus, self.ctx.window, "fail", str(diff))
                raise VerificationFailure(entry)
        params = {"basis_size": len(s_cols)}
        status = "ok" if any(op_cols.values()) or any(flip_cols.values()) else "vacuous"
        return [report_entry(name, params, self.genus, self.ctx.window, status)]
