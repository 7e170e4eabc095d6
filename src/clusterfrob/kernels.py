"""Term-map kernels: the arithmetic under every LaurentPoly operation,
plus `mul_split_terms`, a product over GF(p) that forms only the terms a
splitting keeps (the psi map of `lowerbound` runs on it, through
`LaurentPoly.mul_split`).

A polynomial is a dict mapping exponent tuples (ints) to nonzero
coefficients.  `p == 0` means QQ: an int while the coefficient is
integral, a reduced Fraction otherwise.  `p > 0` means canonical residues
mod p.

Each accumulation loop serves both fields, which differ only in its
reduction step: `v %= p` over GF(p), and over QQ an integral
Fraction becomes its int.  Ints and Fractions go through the same lines
by Python's numeric tower.  A sum that cancels deletes its key.

Inside the package only `laurent` calls these kernels, and no other
module knows the term format.

Laurent monomials are units: a product with a one-term factor is a
shift, `scale_shift_terms`, with no merge.  `LaurentPoly.exact_divide`
divides by a one-term divisor as the product with its inverse, so it
takes the same path.

A square, `square_terms`, forms each unordered pair of terms once and
doubles the products off the diagonal, so it forms n(n+1)/2 pairs for n
terms where `mul_terms(a, a, ...)` forms n^2.  `LaurentPoly.__mul__` runs
it when a polynomial is multiplied by itself, so each square of
`LaurentPoly.__pow__` runs on it too.

Only the kernels charge the raw allowance, and each call is charged its
whole pairwise work once, by `_charge`, before it forms any pair:
len(a) * len(b) for a product, n(n+1)/2 for a square of n terms (n^2
below `_PACK_MIN` pairs, where it is the product), len(b) for a
cancellation step, and the pairs in the kept residue class for the fused
split.  The charge is written to the allowance at once, so a call
stopped by max_terms is charged the whole work, and a call the allowance
cannot cover drains it and forms nothing.

Large products and exact division run on packed keys.  Support extremes
add under multiplication, so the box of every exponent a call can form is
known before it forms any pair.  Over that box an exponent tuple packs
into one mixed-radix int, coordinate 0 the most significant digit, so
that int order is lex order and adding two keys adds their exponents with
no carry: a pair costs one int addition instead of a tuple.  `mul_terms`
packs when its pairs number at least `_PACK_MIN`, and unpacks each
output term once.  Smaller products hardly merge, and for them packing
and unpacking cost more than they save, so they keep the tuple loop.
The division packs the dividend and the divisor once per call, and
`submul_terms` works on those keys.  The term map every caller sees
keeps its exponent tuples.

Exponents are Python ints, exact at any size, and so are packed keys,
however wide the box.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import BudgetExceededError
from .fields import qq_canonical

# The fewest pairs a product packs its keys for.  Timed per product on
# the benchmark workloads, packing made products of under 24 pairs
# 1.2-2.6x slower and products of 32 pairs or more faster.
_PACK_MIN = 32


def box(terms):
    """Componentwise (min, max) exponents of a nonempty term map."""
    cols = list(zip(*terms))
    return tuple(map(min, cols)), tuple(map(max, cols))


def radices(lo, hi):
    """The digit ranges of the packed keys of the box [lo, hi]."""
    return [h - l + 1 for l, h in zip(lo, hi)]


def pack_terms(terms, lo, radix):
    """(key, coefficient) pairs of a term map, in its order: each
    exponent's offsets from the corner `lo` as mixed-radix digits,
    coordinate 0 the most significant."""
    base = 0
    for l, m in zip(lo, radix):
        base = base * m + l
    out = []
    for e, c in terms.items():
        k = 0
        for x, m in zip(e, radix):
            k = k * m + x
        out.append((k - base, c))
    return out


def unpack(keys, lo, radix):
    """The exponent tuples of packed keys, in their order."""
    tail = list(zip(radix[:0:-1], lo[:0:-1]))
    lo0 = lo[0]
    out = []
    for k in keys:
        e = []
        for m, l in tail:
            e.append(k % m + l)
            k //= m
        e.append(k + lo0)
        out.append(tuple(e[::-1]))
    return out


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
    """Charge a kernel call's whole pairwise work to the allowance `raw`
    (a one-element list).  Work the allowance cannot cover drains it to 0
    and raises, before the call forms any pair."""
    if work > raw[0]:
        raw[0] = 0
        raise BudgetExceededError(
            "max_raw_products", "kernel work exhausted the raw "
            "term-product allowance")
    raw[0] -= work


def mul_terms(a, b, p, max_terms, raw):
    """Accumulating product, charged len(a) * len(b) raw products.
    Raises BudgetExceededError past max_terms merged terms, or when that
    work exceeds the shared allowance `raw`.  A one-term factor makes the
    product a shift.  From `_PACK_MIN` pairs on, the pairs add packed
    keys; the output, its order included, is the tuple loop's."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    _charge(raw, len(a) * len(b))
    if len(a) == 1:
        (ea, ca), = a.items()
        out = scale_shift_terms(b, ea, ca, p)
        if len(out) > max_terms:
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
        return out
    if len(a) * len(b) >= _PACK_MIN:
        lo_a, hi_a = box(a)
        lo_b, hi_b = box(b)
        lo = [x + y for x, y in zip(lo_a, lo_b)]
        hi = [x + y for x, y in zip(hi_a, hi_b)]
        radix = radices(lo, hi)
        out = {}
        get = out.get
        bitems = pack_terms(b, lo_b, radix)
        for ka, ca in pack_terms(a, lo_a, radix):
            for kb, cb in bitems:
                k = ka + kb
                old = get(k)
                v = ca * cb if old is None else old + ca * cb
                if p:
                    v %= p
                elif type(v) is Fraction and v.denominator == 1:
                    v = v.numerator
                if v:
                    out[k] = v
                elif old is not None:
                    del out[k]
            if len(out) > max_terms:
                raise BudgetExceededError(
                    "max_terms", f"product exceeded {max_terms} terms")
        return dict(zip(unpack(out, lo, radix), out.values()))
    out = {}
    get = out.get
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            e = tuple(map(add, ea, eb))
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
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
    return out


def square_terms(a, p, max_terms, raw):
    """a * a, forming each unordered pair of terms once: a diagonal pair
    adds c^2 at twice its key, an off-diagonal one 2 * c * c' at the sum
    of its keys.  Charged n(n+1)/2 raw products for n terms.  Below
    `_PACK_MIN` pairs, where `mul_terms` keeps its tuple loop, it is
    `mul_terms(a, a, ...)`, charged n^2.  The output equals that
    product's; `max_terms` applies as in mul_terms."""
    n = len(a)
    if n * n < _PACK_MIN:
        return mul_terms(a, a, p, max_terms, raw)
    _charge(raw, n * (n + 1) // 2)
    lo_a, hi_a = box(a)
    lo = [x + x for x in lo_a]
    radix = radices(lo, [x + x for x in hi_a])
    items = pack_terms(a, lo_a, radix)
    out = {}
    get = out.get
    for i, (ki, ci) in enumerate(items):
        k = ki + ki
        old = get(k)
        v = ci * ci if old is None else old + ci * ci
        if p:
            v %= p
        elif type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        if v:
            out[k] = v
        elif old is not None:
            del out[k]
        c2 = (ci + ci) % p if p else ci + ci
        if c2:  # over GF(2) every off-diagonal pair vanishes
            for kj, cj in items[i + 1:]:
                k = ki + kj
                old = get(k)
                v = c2 * cj if old is None else old + c2 * cj
                if p:
                    v %= p
                elif type(v) is Fraction and v.denominator == 1:
                    v = v.numerator
                if v:
                    out[k] = v
                elif old is not None:
                    del out[k]
        if len(out) > max_terms:
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
    return dict(zip(unpack(out, lo, radix), out.values()))


def _residue(digits, q):
    """The base-q int whose digits, most significant first, are given."""
    k = 0
    for d in digits:
        k = k * q + d
    return k


def residue_groups(b, q):
    """The exponents of b grouped by their residue mod q, the form in
    which `mul_split_terms` takes its grouped factor: a factor that meets
    many others is grouped once.  A group is a tuple of the keys of b
    itself, under its residue packed into one int, so that the groups
    of a large factor stay small beside it."""
    groups = {}
    for eb in b:
        key = _residue([x % q for x in eb], q)
        group = groups.get(key)
        groups[key] = (eb,) if group is None else group + (eb,)
    return groups


def mul_split_terms(a, b, groups, p, q, r, max_terms, raw):
    """The split of a product over GF(p): the terms of a * b whose
    exponents are all congruent to r mod q, each stored at (e - r) // q.

    Only those pairs are formed.  `groups` is `residue_groups(b, q)`,
    and each term of a meets the one group that completes its residue to
    r in every coordinate.  The call is charged the pairs this scan
    finds, before any is formed; `max_terms` applies as in mul_terms.
    Pairs outside the residue class are never formed, so they are not
    charged."""
    if not a or not b:
        return {}
    rows = []
    work = 0
    for ea, ca in a.items():
        group = groups.get(_residue([(r - x) % q for x in ea], q))
        if group is not None:
            rows.append((ea, ca, group))
            work += len(group)
    _charge(raw, work)
    out = {}
    get = out.get
    for ea, ca, group in rows:
        for eb in group:
            e = tuple([(x + y - r) // q for x, y in zip(ea, eb)])
            v = (get(e, 0) + ca * b[eb]) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        if len(out) > max_terms:
            raise BudgetExceededError(
                "max_terms", f"product exceeded {max_terms} terms")
    return out


def scale_shift_terms(a, e0, c0, p):
    """c0 * x^e0 * a with c0 nonzero: distinct exponents stay distinct,
    so nothing merges, and a coefficient 1 multiplies nothing.  Over
    GF(p) no coefficient vanishes, since p is prime."""
    if c0 == 1:
        return {tuple(map(add, e0, e)): c for e, c in a.items()}
    if p:
        return {tuple(map(add, e0, e)): c0 * c % p for e, c in a.items()}
    return {tuple(map(add, e0, e)): qq_canonical(c0 * c)
            for e, c in a.items()}


def submul_terms(rem, k0, c0, b, p, raw):
    """In place, on packed keys: rem -= c0 * x^e0 * b, where k0 is the
    key offset of the row, so that the row's key of a term of b is k0
    plus its key.  Returns the keys the row created.  Charged len(b) raw
    products, like a product with one-term factor."""
    _charge(raw, len(b))
    created = []
    get = rem.get
    neg = -c0
    for kb, cb in b.items():
        k = k0 + kb
        old = get(k)
        v = neg * cb if old is None else old + neg * cb
        if p:
            v %= p
        elif type(v) is Fraction and v.denominator == 1:
            v = v.numerator
        if v:
            rem[k] = v
            if old is None:
                created.append(k)
        elif old is not None:
            del rem[k]
    return created


def backend() -> str:
    """Always 'pure'.  Kept only because cfbench/run.py records
    `kernels.backend()` in the details of each run."""
    return "pure"
