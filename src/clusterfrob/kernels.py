"""Term-map kernels: the arithmetic under every LaurentPoly operation,
plus `mul_split_terms`, a product over GF(p) that forms only the terms a
splitting keeps (the psi map of `lowerbound` runs on it, through
`LaurentPoly.mul_split`).

A polynomial is a dict mapping exponent tuples (ints) to nonzero
coefficients.  `p == 0` means QQ: an int while the coefficient is
integral, a reduced Fraction otherwise.  `p > 0` means canonical residues
mod p.

Each kernel has one accumulation loop for both fields, which differ only
in its reduction step: `v %= p` over GF(p), and over QQ an integral
Fraction becomes its int.  Ints and Fractions go through the same lines
by Python's numeric tower.  A sum that cancels deletes its key.

Inside the package only `laurent` calls these kernels, and no other
module knows the term format.

Laurent monomials are units: a product with a one-term factor is a
shift, `scale_shift_terms`, with no merge.  `LaurentPoly.exact_divide`
divides by a one-term divisor as the product with its inverse, so it
takes the same path.

Only the kernels charge the raw allowance, and each call is charged its
whole pairwise work once, by `_charge`, before it forms any pair:
len(a) * len(b) for a product, len(b) for a cancellation step, and the
pairs in the kept residue class for the fused split.  Every kernel
writes the allowance back once its output is formed (a product's terms,
a cancellation step's row), so a call stopped by the range guard is
charged nothing and one stopped by max_terms the whole work.

Exponents are kept inside signed 64-bit range, so that a packed
representation with fixed-width exponent fields can replace the tuples
without changing what is accepted; going out of range raises
OverflowError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceededError
from .fields import qq_canonical

_EXP_MAX = 2**63 - 1
_EXP_MIN = -(2**63)


def _checked_add(ea, eb):
    e = tuple(map(int.__add__, ea, eb))
    for x in e:
        if x > _EXP_MAX or x < _EXP_MIN:
            raise OverflowError("exponent outside 64-bit range")
    return e


def add_terms(a, b, p):
    out = dict(a)
    get = out.get
    for e, c in b.items():
        old = get(e)
        v = c if old is None else old + c
        if p:
            v %= p
        elif type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        if v:
            out[e] = v
        elif old is not None:
            del out[e]
    return out


def sub_terms(a, b, p):
    return add_terms(a, neg_terms(b, p), p)


def neg_terms(a, p):
    if p:
        return {e: p - c for e, c in a.items()}
    return {e: -c for e, c in a.items()}


def _charge(raw, work):
    """What the allowance `raw` (a one-element list) has left after a
    kernel call's whole pairwise work.  The caller writes it back once
    its output is formed; a call the allowance cannot cover drains it and
    raises before forming any pair."""
    remaining = raw[0] - work
    if remaining < 0:
        raw[0] = 0
        raise BudgetExceededError(
            "max_raw_products", "kernel work exhausted the raw "
            "term-product allowance")
    return remaining


def mul_terms(a, b, p, max_terms, raw):
    """Accumulating product, charged len(a) * len(b) raw products.
    Raises BudgetExceededError past max_terms merged terms, or when that
    work exceeds the shared allowance `raw`.  A one-term factor makes the
    product a shift."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    remaining = _charge(raw, len(a) * len(b))
    if len(a) == 1:
        (ea, ca), = a.items()
        out = scale_shift_terms(b, ea, ca, p)
        raw[0] = remaining
        if len(out) > max_terms:
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
        return out
    out = {}
    get = out.get
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            e = _checked_add(ea, eb)
            old = get(e)
            v = ca * cb if old is None else old + ca * cb
            if p:
                v %= p
            elif type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            if v:
                out[e] = v
            elif old is not None:
                del out[e]
        if len(out) > max_terms:
            raw[0] = remaining
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
    raw[0] = remaining
    return out


def mul_split_terms(a, b, p, q, r, max_terms, raw):
    """The split of a product over GF(p): the terms of a * b whose
    exponents are all congruent to r mod q, each stored at (e - r) // q.

    Only those pairs are formed.  The smaller factor is grouped by
    exponent residue mod q, and each term of the other factor meets the
    one group that completes its residue to r in every coordinate.  The
    call is charged the pairs this scan finds, before any is formed;
    `max_terms` and the range guard apply as in mul_terms.  Pairs outside
    the residue class are never formed, so they are neither charged nor
    range-checked."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    groups = {}
    for eb, cb in b.items():
        groups.setdefault(tuple(x % q for x in eb), []).append((eb, cb))
    rows = []
    work = 0
    for ea, ca in a.items():
        group = groups.get(tuple((r - x) % q for x in ea))
        if group is not None:
            rows.append((ea, ca, group))
            work += len(group)
    remaining = _charge(raw, work)
    out = {}
    get = out.get
    for ea, ca, group in rows:
        for eb, cb in group:
            e = tuple((x - r) // q for x in _checked_add(ea, eb))
            v = (get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        if len(out) > max_terms:
            raw[0] = remaining
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
    raw[0] = remaining
    return out


def scale_shift_terms(a, e0, c0, p):
    """c0 * x^e0 * a with c0 nonzero: distinct exponents stay distinct,
    so nothing merges, and a coefficient 1 multiplies nothing.  Over
    GF(p) no coefficient vanishes, since p is prime."""
    if c0 == 1:
        return {_checked_add(e0, e): c for e, c in a.items()}
    if p:
        return {_checked_add(e0, e): c0 * c % p for e, c in a.items()}
    return {_checked_add(e0, e): qq_canonical(c0 * c) for e, c in a.items()}


def submul_terms(rem, e0, c0, b, p, raw):
    """In place: rem -= c0 * x^e0 * b.  Returns the keys that remain live.
    Charged len(b) raw products, like a product with one-term factor."""
    remaining = _charge(raw, len(b))
    touched = []
    get = rem.get
    neg = -c0
    for eb, cb in b.items():
        e = _checked_add(e0, eb)
        old = get(e)
        v = neg * cb if old is None else old + neg * cb
        if p:
            v %= p
        elif type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        if v:
            rem[e] = v
            touched.append(e)
        elif old is not None:
            del rem[e]
    raw[0] = remaining
    return touched


def backend() -> str:
    """Always 'pure'.  Kept only because cfbench/run.py records
    `kernels.backend()` in the details of each run."""
    return "pure"
