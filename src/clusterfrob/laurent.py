"""Sparse multivariate Laurent polynomials with exact coefficients.

The central representation of the package: a LaurentPoly is an immutable
sparse map from integer exponent vectors (any sign) to nonzero field
elements, over QQ or GF(p).  On top of it sit exact division by descending
leading-term cancellation, termwise partial derivatives, the canonical text
rendering used by the CLI, and unreduced numerator/denominator pairs
(RationalExpr) for fraction-field work.

This module and `kernels` are the only ones that know the term format.
Other modules read a polynomial through its public (exponents,
coefficient) view, `for e, c in poly`, and reach the term map only
through methods: the split `mul_split`, which keeps the residue grouping
of its left factor, and the change of variable `substitute_reciprocal`.

Laurent monomials are units, and units cost nothing: a product with a
one-term factor is a shift, an exact division by a one-term divisor is
the product with its inverse, and RationalExpr never forms a product
with 1 or divides by a denominator equal to 1.

Term order is lexicographic on exponent tuples throughout; the canonical
rendering lists terms in descending lex order.
"""

from __future__ import annotations

import heapq
import re
import sys
from collections.abc import Iterator, Mapping
from fractions import Fraction
from operator import sub

from . import budgets, kernels
from .errors import FieldMismatchError, NotDivisibleError, BudgetExceededError
from .fields import qq_canonical, require_same_field


class LaurentPoly:
    """Immutable sparse Laurent polynomial in n variables.

    `terms` maps exponent tuples of length n to nonzero coefficients:
    over QQ an int while integral and a reduced Fraction otherwise, over
    GF(p) canonical residues.  Use the classmethod constructors; the raw
    __init__ trusts its input.
    """

    __slots__ = ("field", "n", "terms", "_hash", "_groups", "_power")

    def __init__(self, field, n: int, terms: dict):
        self.field = field
        self.n = n
        self.terms = terms
        self._hash = None
        self._groups = None  # (q, residue groups mod q) of mul_split
        self._power = None  # (k, self ** k) of the latest power

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, field, n: int, items) -> "LaurentPoly":
        """Normalizing constructor: coerces coefficients, drops zeros,
        merges repeated exponent vectors."""
        terms: dict = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for exps, coeff in pairs:
            e = tuple(exps)
            if len(e) != n:
                raise ValueError(
                    f"exponent vector {e} has length {len(e)}, expected {n}")
            for x in e:
                if not isinstance(x, int):
                    raise ValueError(f"exponent {x!r} is not an int")
            c = field.coerce(coeff)
            old = terms.get(e)
            c = c if old is None else old + c
            if field.char:
                c %= field.char
            elif type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            if c:
                terms[e] = c
            elif old is not None:
                del terms[e]
        return cls(field, n, terms)

    @classmethod
    def zero(cls, field, n: int) -> "LaurentPoly":
        return cls(field, n, {})

    @classmethod
    def constant(cls, field, n: int, value) -> "LaurentPoly":
        c = field.coerce(value)
        return cls(field, n, {(0,) * n: c} if c else {})

    @classmethod
    def one(cls, field, n: int) -> "LaurentPoly":
        return cls(field, n, {(0,) * n: field.one})

    @classmethod
    def variable(cls, field, n: int, i: int) -> "LaurentPoly":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        e = tuple(1 if j == i else 0 for j in range(n))
        return cls(field, n, {e: field.one})

    @classmethod
    def monomial(cls, field, n: int, exps, coeff=1) -> "LaurentPoly":
        return cls.from_terms(field, n, [(tuple(exps), coeff)])

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        terms = self.terms
        if len(terms) != 1:
            return False
        for e in terms:
            # the one of QQ and the one of GF(p) both equal 1
            return e.count(0) == len(e) and terms[e] == 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], object]]:
        return iter(self.terms.items())

    def leading_term(self) -> tuple[tuple[int, ...], object]:
        """Lexicographically largest exponent vector with its coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def coordinate_sums(self) -> set[int]:
        """Set of exponent-coordinate sums over the support (grading degrees
        for the all-weights-one grading)."""
        return {sum(e) for e in self.terms}

    def support_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Componentwise (min, max) over the support; zero poly rejected."""
        if not self.terms:
            raise ValueError("zero polynomial has empty support")
        return kernels.box(self.terms)

    # -- equality / hashing / ordering ------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            key = (self.field.name, self.n, frozenset(self.terms.items()))
            h = self._hash = hash(key)
        return h

    def sort_key(self):
        """Deterministic total order key among polynomials over one field."""
        return tuple(sorted(self.terms.items(), reverse=True))

    # -- arithmetic --------------------------------------------------------

    def _compat(self, other: "LaurentPoly") -> None:
        require_same_field(self.field, other.field)
        if self.n != other.n:
            raise FieldMismatchError(
                f"variable count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        return LaurentPoly(self.field, self.n,
                           kernels.add_terms(self.terms, other.terms,
                                             self.field.char))

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        return LaurentPoly(self.field, self.n,
                           kernels.sub_terms(self.terms, other.terms,
                                             self.field.char))

    def __neg__(self):
        return LaurentPoly(self.field, self.n,
                           kernels.neg_terms(self.terms, self.field.char))

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._compat(other)
        p, limit = self.field.char, budgets.current().max_terms
        if other is self:
            terms = kernels.square_terms(self.terms, p, limit,
                                         budgets.raw_allowance())
        else:
            terms = kernels.mul_terms(self.terms, other.terms, p, limit,
                                      budgets.raw_allowance())
        return LaurentPoly(self.field, self.n, terms)

    def mul_split(self, other: "LaurentPoly", q: int, r: int) -> "LaurentPoly":
        """The terms of self * other whose exponents are all congruent to
        r mod q, each stored at (e - r) // q.  Only those pairs are
        formed, and only they are charged, under the budgets of a
        product.  Over GF(p) only: the kernel reduces mod p.  self keeps
        its grouping by exponent residue mod q for the next call at that
        q, so the factor that meets many others goes on the left."""
        self._compat(other)
        p = self.field.char
        if not p:
            raise FieldMismatchError(
                f"mul_split needs a prime field, got {self.field!r}")
        cached = self._groups
        if cached is None or cached[0] != q:
            cached = self._groups = q, kernels.residue_groups(self.terms, q)
        terms = kernels.mul_split_terms(other.terms, self.terms, cached[1],
                                        p, q, r, budgets.current().max_terms,
                                        budgets.raw_allowance())
        return LaurentPoly(self.field, self.n, terms)

    def inverse(self) -> "LaurentPoly":
        """Inverse of a monomial; anything else has no Laurent inverse."""
        if len(self.terms) != 1:
            raise NotDivisibleError(
                "only monomials are invertible in the Laurent ring")
        (e, c), = self.terms.items()
        return LaurentPoly(self.field, self.n,
                           {tuple(-x for x in e): self.field.invert(c)})

    def __pow__(self, k: int) -> "LaurentPoly":
        """self ** k by one stated rule.

        k = 0 gives one and k = 1 gives self.  Otherwise self is squared,
        as every square is, on the square kernel (`__mul__` of a
        polynomial by itself).  A base of n > 2 terms is then, for k > 4,
        multiplied by the base k - 2 times: a product by the sparse base
        costs n pairs per term of the power, while a square of the power
        costs about half its length squared (Fateman, Stud. Appl. Math.
        53, 1974).  Any other power goes on by binary squaring, reading
        the bits of k from the top: square, and multiply by the base at
        each set bit.  So does a chain that cannot fit the allowance left
        after the square.  Where no terms cancel, a product by the base
        has at least n - 1 terms more than its other factor (a sumset in
        Z^n, ordered lexicographically), so the chain forms at least
        n (k - 2) (len(square) + (n - 1)(k - 3) / 2) pairs; binary
        squaring then refuses its one large square, where the doomed
        chain would first form many small products.

        The base powered most in this package is a Markov variable: at
        the 4th markov3 step along 1,2,3,1, x2' (5 terms) to the 87th
        and x3' (72 terms) to the 15th.  That step forms 6,158,747 pairs
        by this rule, 10,288,762 by binary squaring alone and 21,787,253
        by binary squaring on the product kernel.  The plain product
        chain alone leaves 57 of criterion 1's 200 markov4 paths
        truncated, and this rule 40.

        The whole power draws on one `budgets.raw_meter()`, so outside a
        meter it is one call of max_raw_products, and inside one it
        draws on the enclosing meter.  The result is kept on self as its
        latest power: asking again for that k forms no pairs and is
        charged nothing, but max_terms still applies to it.  Mutating
        back along an edge powers the same variables as the way out, so
        on `markov_path` 20 of a pass's 28 powers are kept ones, and a
        pass forms 43,044 pairs where it would form 65,048 without them.
        A kept power lives as long as its base: explore of the markov
        seed to depth 4 peaks at 77 MiB, 56 MiB without kept powers."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return LaurentPoly.one(self.field, self.n)
        if k == 1:
            return self
        kept = self._power
        if kept is not None and kept[0] == k:
            result = kept[1]
            limit = budgets.current().max_terms
            if len(result.terms) > limit:
                raise BudgetExceededError(
                    "max_terms", f"power exceeded {limit} terms")
            return result
        n = len(self.terms)
        with budgets.raw_meter() as allowance:
            result = self * self
            # the chain's pairs where no terms cancel: then each power of
            # the chain has n - 1 terms more than the one before, or more
            chain = n * (k - 2) * (2 * len(result) + (n - 1) * (k - 3)) // 2
            if n > 2 and k > 4 and chain <= allowance[0]:
                for _ in range(k - 2):
                    result = result * self
            else:
                for i, bit in enumerate(bin(k)[3:]):
                    if i:
                        result = result * result
                    if bit == "1":
                        result = result * self
        self._power = k, result
        return result

    # -- exact division -----------------------------------------------------

    def exact_divide(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor, or NotDivisibleError.

        A one-term divisor is a unit: the quotient is the product with
        its inverse, a shift bounded like any product.  Any other divisor
        goes through descending cancellation (`_divide_by_cancellation`).
        """
        self._compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero():
            return self
        if len(divisor.terms) == 1:
            return self * divisor.inverse()
        return self._divide_by_cancellation(divisor)

    def _divide_by_cancellation(self, divisor: "LaurentPoly"
                                ) -> "LaurentPoly":
        """Classical descending division of nonzero polynomials:
        repeatedly cancel the lex-leading remainder term against the
        divisor's leading term.  Because componentwise support extremes
        are additive under multiplication, every true quotient term lies
        in the box [min(self)-min(divisor), max(self)-max(divisor)]; a
        candidate outside that box disproves divisibility immediately,
        and the box also bounds the number of steps.  As for a product,
        max_terms caps the quotient and the remainder, and every
        cancellation is charged to the raw meter as one row.

        The remainder runs on keys packed over the dividend's box, which
        holds every remainder term and every row of a quotient term in
        the quotient box.  The heap holds negated keys, whose int order
        is lex order, and gets only the keys a row creates.  Only the
        popped leading key is unpacked, to form the quotient exponent."""
        field = self.field
        p = field.char
        lo_a, hi_a = self.support_box()
        lo_b, hi_b = divisor.support_box()
        lo = tuple(lo_a[i] - lo_b[i] for i in range(self.n))
        hi = tuple(hi_a[i] - hi_b[i] for i in range(self.n))
        if any(lo[i] > hi[i] for i in range(self.n)):
            raise NotDivisibleError("no quotient: empty support box")

        eb, cb = divisor.leading_term()
        cb_inv = field.invert(cb)
        bres = budgets.current()
        raw = budgets.raw_allowance()
        radix = kernels.radices(lo_a, hi_a)
        rem = dict(kernels.pack_terms(self.terms, lo_a, radix))
        row = dict(kernels.pack_terms(divisor.terms, lo_b, radix))
        # the leading divisor key: the key of the leading remainder term
        # minus it is the key offset of the row that cancels that term
        kb = max(row)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quotient: dict = {}
        while rem:
            while True:
                if not heap:
                    raise NotDivisibleError("remainder has no live terms")
                k = -heapq.heappop(heap)
                cr = rem.get(k)
                if cr is not None:
                    break
            er, = kernels.unpack((k,), lo_a, radix)
            et = tuple(map(sub, er, eb))
            if any(not lo[i] <= et[i] <= hi[i] for i in range(self.n)):
                raise NotDivisibleError(
                    "no quotient: leading term leaves the support box")
            ct = cr * cb_inv % p if p else qq_canonical(cr * cb_inv)
            quotient[et] = ct
            for key in kernels.submul_terms(rem, k - kb, ct, row, p, raw):
                heapq.heappush(heap, -key)
            if len(quotient) > bres.max_terms:
                raise BudgetExceededError(
                    "max_terms", f"quotient exceeded {bres.max_terms} terms")
            if len(rem) > bres.max_terms:
                raise BudgetExceededError(
                    "max_terms", "division remainder grew past the budget")
        return LaurentPoly(field, self.n, quotient)

    # -- calculus and substitution --------------------------------------------

    def partial_derivative(self, i: int) -> "LaurentPoly":
        """Termwise d/dx_i; the exponent multiplies as a field scalar, so
        over GF(p) terms with x_i-exponent divisible by p die."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        field = self.field
        p = field.char
        out: dict = {}
        for e, c in self.terms.items():
            a = e[i]
            if a == 0:
                continue
            v = a * c
            if p:
                v %= p
            elif type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            if not v:
                continue
            e2 = list(e)
            e2[i] = a - 1
            out[tuple(e2)] = v
        return LaurentPoly(field, self.n, out)

    def substitute_reciprocal(self, k: int, numer: "LaurentPoly"
                              ) -> tuple["LaurentPoly", int]:
        """Substitute x_k -> numer / x_k: returns (g, shift) with the
        result equal to g / numer**shift.  The terms are grouped by their
        x_k-degree d, and group d is multiplied by numer**(d + shift) over
        the common denominator.  `numer` must not involve x_k; a
        polynomial that does not involve x_k either comes back unchanged
        with shift 0."""
        degs = {e[k] for e in self.terms}
        if not degs - {0}:
            return self, 0
        shift = max(0, -min(degs))
        grouped: dict[int, dict] = {d: {} for d in degs}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[k] = -e[k]
            grouped[e[k]][tuple(e2)] = c
        out = None
        for d, terms in grouped.items():
            part = _times(LaurentPoly(self.field, self.n, terms),
                          numer ** (d + shift))
            out = part if out is None else out + part
        return out, shift

    # -- rendering -----------------------------------------------------------

    def render(self, names: list[str] | None = None) -> str:
        """Canonical text form: terms in descending lex exponent order,
        `coeff*x1^a1*...*xn^an` per term, unit exponents and coefficient 1
        omitted, negative coefficients pulled into the separator.

        This string is the byte-exact CLI contract; parse_laurent inverts it.
        """
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.n)]
        rational = self.field.char == 0
        pieces: list[tuple[bool, str]] = []
        try:
            for e in sorted(self.terms, reverse=True):
                c = self.terms[e]
                negative = rational and c < 0
                mag = -c if negative else c
                factors = []
                for i, a in enumerate(e):
                    if a == 0:
                        continue
                    factors.append(names[i] if a == 1 else f"{names[i]}^{a}")
                body = "*".join(factors)
                if not body:
                    text = self.field.render(mag)
                elif mag == self.field.one:
                    text = body
                else:
                    text = f"{self.field.render(mag)}*{body}"
                pieces.append((negative, text))
        except ValueError as exc:  # only str() of an int past the limit
            raise ValueError(
                "cannot print the polynomial: an exponent or coefficient "
                f"has more than {_digit_limit()} digits, the most this "
                "interpreter converts to text") from exc
        first_neg, first = pieces[0]
        out = [f"-{first}" if first_neg else first]
        for negative, text in pieces[1:]:
            out.append(f" - {text}" if negative else f" + {text}")
        return "".join(out)

    def __repr__(self):
        return f"LaurentPoly({self.field!r}, {self.render()!r})"


# -- parsing ------------------------------------------------------------------


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int converted from or
    to text (`sys.set_int_max_str_digits`), 0 when there is none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


_TOKEN = re.compile(r"\s*(?:(?P<var>x(?P<idx>\d+))(?:\^(?P<exp>-?\d+))?"
                    r"|(?P<num>\d+(?:/\d+)?)"
                    r"|(?P<op>[+\-*]))")


def parse_laurent(text: str, n: int, field) -> LaurentPoly:
    """Parse the canonical rendering (and harmless variants) back into a
    LaurentPoly.  Accepts signed integer or a/b coefficients over QQ,
    nonnegative integers over GF(p), `*`-joined factors, and `^` powers."""
    items: list[tuple[tuple[int, ...], object]] = []
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")

    def fail(msg: str) -> ValueError:
        return ValueError(f"bad polynomial at offset {pos}: {msg}")

    limit = _digit_limit()
    if limit:
        number = re.search(rf"\d{{{limit + 1},}}", text)
        if number:
            pos = number.start()
            raise fail(f"a number of {len(number.group())} digits, more "
                       f"than the {limit} this interpreter reads from text")

    # split into sign-separated terms first
    sign = 1
    term_exps: list[int] | None = None
    term_coeff = None
    expecting_factor = True

    def flush():
        nonlocal term_exps, term_coeff, sign
        if term_exps is None:
            raise fail("dangling sign or operator")
        coeff = term_coeff if term_coeff is not None else field.one
        if sign < 0:
            coeff = -coeff  # from_terms re-coerces, so raw negatives are fine
        items.append((tuple(term_exps), coeff))
        term_exps = None
        term_coeff = None
        sign = 1

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise fail(f"unexpected {text[pos]!r}")
        pos = m.end()
        if m.group("op"):
            op = m.group("op")
            if op == "*":
                if term_exps is None:
                    raise fail("'*' before any factor")
                expecting_factor = True
                continue
            if not expecting_factor and term_exps is not None:
                flush()
            if op == "-":
                sign = -sign
            expecting_factor = True
            continue
        if m.group("num"):
            token = m.group("num")
            if field.char and "/" in token:
                raise fail(f"fractional coefficient {token!r} over {field!r}")
            if "/" in token and not int(token.partition("/")[2]):
                raise fail(f"zero denominator in {token!r}")
            value = field.coerce(Fraction(token) if field.char == 0
                                 else int(token))
            if term_exps is None:
                term_exps = [0] * n
            if term_coeff is None:
                term_coeff = value
            else:
                term_coeff = (term_coeff * value % field.char
                              if field.char else term_coeff * value)
            expecting_factor = False
            continue
        idx = int(m.group("idx"))
        if not 1 <= idx <= n:
            raise fail(f"variable x{idx} out of range for n={n}")
        a = int(m.group("exp")) if m.group("exp") is not None else 1
        if term_exps is None:
            term_exps = [0] * n
        term_exps[idx - 1] += a
        expecting_factor = False
    if expecting_factor:
        raise fail("dangling operator at end")
    flush()
    poly = LaurentPoly.from_terms(field, n, items)
    return poly


# -- fraction-field elements ---------------------------------------------------


class RationalExpr:
    """Unreduced numerator/denominator pair over the Laurent ring.

    No gcd is ever computed; cancellation only happens through explicit
    exact division (`as_laurent`, `simplify`).  Equality is decided by
    cross-multiplication, which is exact in an integral domain.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.one(num.field, num.n)
        num._compat(den)
        if den.is_zero():
            raise ZeroDivisionError("rational expression with zero denominator")
        self.num = num
        self.den = den

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, field, n: int, value) -> "RationalExpr":
        return cls(LaurentPoly.constant(field, n, value))

    @property
    def field(self):
        return self.num.field

    @property
    def n(self) -> int:
        return self.num.n

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def equals(self, other: "RationalExpr") -> bool:
        """Exact equality as fraction-field elements (cross-multiplication)."""
        o = self._coerce(other)
        return _times(self.num, o.den) == _times(o.num, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RationalExpr(other)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("RationalExpr is unhashable: equality is up to "
                        "cross-multiplication, not representation")

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "RationalExpr":
        """`other` as a RationalExpr in the same ring as self."""
        if isinstance(other, LaurentPoly):
            other = RationalExpr(other)
        elif not isinstance(other, RationalExpr):
            raise TypeError(f"cannot combine RationalExpr with {other!r}")
        self.num._compat(other.num)
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return RationalExpr(_times(self.num, o.den) + _times(o.num, self.den),
                            _times(self.den, o.den))

    def __sub__(self, other):
        o = self._coerce(other)
        return RationalExpr(_times(self.num, o.den) - _times(o.num, self.den),
                            _times(self.den, o.den))

    def __neg__(self):
        return RationalExpr(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalExpr(_times(self.num, o.num), _times(self.den, o.den))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational expression")
        return RationalExpr(_times(self.num, o.den), _times(self.den, o.num))

    def __pow__(self, k: int) -> "RationalExpr":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RationalExpr(_power(self.den, -k), _power(self.num, -k))
        return RationalExpr(_power(self.num, k), _power(self.den, k))

    # -- conversion ----------------------------------------------------------

    def as_laurent(self) -> LaurentPoly:
        """The Laurent polynomial this fraction equals, found by one exact
        division; NotDivisibleError when there is none."""
        if self.den.is_one():
            return self.num
        return self.num.exact_divide(self.den)

    def simplify(self) -> "RationalExpr":
        """Collapse to denominator 1 when the division happens to be exact;
        otherwise return self unchanged."""
        if self.den.is_one():
            return self
        try:
            return RationalExpr(self.as_laurent())
        except NotDivisibleError:
            return self

    def render(self, names: list[str] | None = None) -> str:
        if self.den.is_one():
            return self.num.render(names)
        return f"({self.num.render(names)}) / ({self.den.render(names)})"

    def __repr__(self):
        return f"RationalExpr({self.render()!r})"


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b for polynomials of one ring, without a product when either
    factor is 1."""
    if b.is_one():
        return a
    if a.is_one():
        return b
    return a * b


def _power(a: LaurentPoly, k: int) -> LaurentPoly:
    """a ** k for k >= 0, without powering when a is 1."""
    return a if a.is_one() else a ** k
