"""Term-map kernels: the arithmetic under every LaurentPoly operation,
plus `mul_split_terms`, a product over GF(p) that forms only the terms a
splitting keeps (the psi map of `lowerbound` runs on it).

A polynomial is a dict mapping exponent tuples (ints) to nonzero
coefficients.  `p == 0` means object coefficients (Fraction over QQ);
`p > 0` means canonical residues mod p.

Laurent monomials are units: a product with a one-term factor is a
shift, `scale_shift_terms`, with no merge, charged like the one row of
the general product.  `LaurentPoly.exact_divide` divides by a one-term
divisor as the product with its inverse, so it takes the same path.
Only the kernels charge the raw allowance.

Exponents are kept inside signed 64-bit range, so that a packed
representation with fixed-width exponent fields can replace the tuples
without changing what is accepted; going out of range raises
OverflowError.
"""

from __future__ import annotations

from .errors import BudgetExceededError

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
    if p:
        for e, c in b.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    else:
        for e, c in b.items():
            old = out.get(e)
            v = c if old is None else old + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def sub_terms(a, b, p):
    out = dict(a)
    if p:
        for e, c in b.items():
            v = (out.get(e, 0) - c) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    else:
        for e, c in b.items():
            old = out.get(e)
            v = -c if old is None else old - c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def neg_terms(a, p):
    if p:
        return {e: p - c for e, c in a.items()}
    return {e: -c for e, c in a.items()}


def mul_terms(a, b, p, max_terms, raw):
    """Accumulating product.  Raises BudgetExceededError past max_terms
    merged terms, or when the raw pairwise work drains the shared
    allowance `raw` (a one-element list, decremented in place).  A
    one-term factor makes the product a shift, charged as one row."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        remaining = raw[0] - len(b)
        if remaining < 0:
            raw[0] = 0
            raise BudgetExceededError(
                "max_raw_products", "product work exhausted the raw "
                "term-product allowance")
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
    row_cost = len(bitems)
    remaining = raw[0]
    if p:
        for ea, ca in a.items():
            remaining -= row_cost
            if remaining < 0:
                raw[0] = 0
                raise BudgetExceededError(
                    "max_raw_products", "product work exhausted the raw "
                    "term-product allowance")
            for eb, cb in bitems:
                e = _checked_add(ea, eb)
                v = (get(e, 0) + ca * cb) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
            if len(out) > max_terms:
                raw[0] = remaining
                raise BudgetExceededError(
                    "max_terms", f"product exceeded {max_terms} terms")
    else:
        for ea, ca in a.items():
            remaining -= row_cost
            if remaining < 0:
                raw[0] = 0
                raise BudgetExceededError(
                    "max_raw_products", "product work exhausted the raw "
                    "term-product allowance")
            for eb, cb in bitems:
                e = _checked_add(ea, eb)
                old = get(e)
                v = ca * cb if old is None else old + ca * cb
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


def mul_split_terms(a, b, p, q, r, max_terms, raw):
    """The split of a product over GF(p): the terms of a * b whose
    exponents are all congruent to r mod q, each stored at (e - r) // q.

    Only those pairs are formed.  The smaller factor is grouped by
    exponent residue mod q, and each term of the other factor meets the
    one group that completes its residue to r in every coordinate.  Each
    such row charges the size of that group against `raw` before its
    pairs are formed; `max_terms` and the range guard apply as in
    mul_terms.  Pairs outside the residue class are never formed, so
    they are neither charged nor range-checked."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    groups = {}
    for eb, cb in b.items():
        groups.setdefault(tuple(x % q for x in eb), []).append((eb, cb))
    out = {}
    get = out.get
    remaining = raw[0]
    for ea, ca in a.items():
        group = groups.get(tuple((r - x) % q for x in ea))
        if group is None:
            continue
        remaining -= len(group)
        if remaining < 0:
            raw[0] = 0
            raise BudgetExceededError(
                "max_raw_products", "product work exhausted the raw "
                "term-product allowance")
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
    so nothing merges, and a coefficient 1 multiplies nothing."""
    if c0 == 1:
        return {_checked_add(e0, e): c for e, c in a.items()}
    out = {}
    if p:
        for e, c in a.items():
            v = c0 * c % p
            if v:
                out[_checked_add(e0, e)] = v
    else:
        for e, c in a.items():
            out[_checked_add(e0, e)] = c0 * c
    return out


def submul_terms(rem, e0, c0, b, p, raw):
    """In place: rem -= c0 * x^e0 * b.  Returns the keys that remain live.
    Charges len(b) against the raw allowance like one product row."""
    remaining = raw[0] - len(b)
    if remaining < 0:
        raw[0] = 0
        raise BudgetExceededError(
            "max_raw_products", "division work exhausted the raw "
            "term-product allowance")
    raw[0] = remaining
    touched = []
    if p:
        for eb, cb in b.items():
            e = _checked_add(e0, eb)
            v = (rem.get(e, 0) - c0 * cb) % p
            if v:
                rem[e] = v
                touched.append(e)
            elif e in rem:
                del rem[e]
    else:
        for eb, cb in b.items():
            e = _checked_add(e0, eb)
            old = rem.get(e)
            v = -(c0 * cb) if old is None else old - c0 * cb
            if v:
                rem[e] = v
                touched.append(e)
            elif e in rem:
                del rem[e]
    return touched


def backend() -> str:
    """Always 'pure'.  Kept only because cfbench/run.py records
    `kernels.backend()` in the details of each run."""
    return "pure"
