"""Reference computations the benchmark checks clusterfrob against.

Nothing here imports clusterfrob.  Polynomials are plain dicts mapping
exponent tuples to coefficients, read from the program's canonical text
form (`LaurentPoly.render()`) by `parse_render`, so a change of the
program's internal term representation leaves these checks working.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# -- reading program output ---------------------------------------------------

_SEPARATOR = re.compile(r" ([+-]) ")
_COEFF = re.compile(r"\d+(?:/\d+)?")
_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_render(text: str, n: int) -> dict:
    """Terms of a rendered Laurent polynomial in x1..xn.

    Coefficients come back as int, or as Fraction when written a/b; any
    other coefficient text (a float such as `1.0`, a name) is rejected."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = _SEPARATOR.split(text)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    terms: dict = {}
    for sgn, body in zip(signs, pieces[0::2]):
        coeff: int | Fraction = 1
        exps = [0] * n
        factors = body.split("*")
        if _COEFF.fullmatch(factors[0]):
            coeff = _rational(factors.pop(0))
            if not coeff:
                raise ValueError(f"zero coefficient in {body!r}")
        for factor in factors:
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise ValueError(f"variable x{i} out of range for n={n}")
            exps[i - 1] += int(m.group(2)) if m.group(2) else 1
        e = tuple(exps)
        if e in terms:
            raise ValueError(f"repeated monomial {body!r} in {text!r}")
        terms[e] = sgn * coeff
    return terms


def _rational(token: str) -> int | Fraction:
    if "/" in token:
        num, den = token.split("/")
        value = Fraction(int(num), int(den))
        if value.denominator == 1:
            raise ValueError(f"unreduced coefficient {token!r}")
        return value
    return int(token)


def all_positive_integers(terms: dict) -> bool:
    return bool(terms) and all(type(c) is int and c > 0
                               for c in terms.values())


# -- evaluation at points modulo a large prime --------------------------------

BIG_PRIME = 2**61 - 1


def eval_mod(terms: dict, point, prime: int = BIG_PRIME) -> int:
    """Value of a Laurent polynomial at a point with nonzero residues."""
    total = 0
    for e, c in terms.items():
        v = c.numerator * pow(c.denominator, -1, prime) if isinstance(
            c, Fraction) else c
        for x, a in zip(point, e):
            if a:
                v = v * pow(x, a, prime) % prime
        total = (total + v) % prime
    return total


# -- finite type: Fomin-Zelevinsky counts and positive roots ------------------


def dynkin_edges(kind: str, n: int) -> list[tuple[int, int]]:
    """Edges (0-based) of the Dynkin diagram A_n, D_n (n >= 4) or E_n
    (n in 6, 7, 8), as oriented arrows i -> j of an acyclic quiver."""
    if kind == "A" and n >= 1:
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "D" and n >= 4:
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if kind == "E" and n in (6, 7, 8):
        return [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    raise ValueError(f"no Dynkin diagram {kind}{n}")


def fz_counts(kind: str, n: int) -> tuple[int, int]:
    """(clusters, cluster variables) of the finite-type cluster algebra,
    from Fomin-Zelevinsky, "Cluster algebras II" (math/0208229)."""
    if kind == "A":
        return math.comb(2 * n + 2, n + 1) // (n + 2), n * (n + 3) // 2
    if kind == "D":
        clusters = (3 * n - 2) * math.comb(2 * n - 2, n - 1)
        if clusters % n:
            raise ArithmeticError("D_n cluster count is not an integer")
        return clusters // n, n * n
    return {6: (833, 42), 7: (4160, 70), 8: (25080, 128)}[n]


def positive_roots(kind: str, n: int) -> set[tuple[int, ...]]:
    """Positive roots in the simple-root basis, generated from the simple
    roots by the simple reflections s_i(b) = b - (A b)_i e_i of the Cartan
    matrix A of the diagram."""
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in dynkin_edges(kind, n):
        cartan[i][j] = cartan[j][i] = -1
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    todo = list(simple)
    while todo:
        b = todo.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * b[j] for j in range(n))
            r = list(b)
            r[i] -= pairing
            r = tuple(r)
            if r not in roots and all(x >= 0 for x in r) and any(r):
                roots.add(r)
                todo.append(r)
    return roots


def mutate_matrix(b, path):
    """Exchange matrix mutated at each vertex of the path in turn:
    b'_ij = -b_ij through k, else b_ij + sgn(b_ik) max(b_ik b_kj, 0)."""
    n = len(b)
    b = [list(row) for row in b]
    for k in path:
        b = [[-b[i][j] if k in (i, j) else
              b[i][j] + (b[i][k] > 0) * max(b[i][k] * b[k][j], 0)
              - (b[i][k] < 0) * max(b[i][k] * b[k][j], 0)
              for j in range(n)] for i in range(n)]
    return tuple(tuple(row) for row in b)


def denominator_vector(terms: dict, n: int) -> tuple[int, ...]:
    """d_i = the largest power of x_i in the denominator."""
    return tuple(max(0, -min(e[i] for e in terms)) for i in range(n))


# -- the Markov family --------------------------------------------------------


def markov_triples(path) -> list[tuple[int, ...]]:
    """Vieta jumps (a, b, c) -> (a, b, 3ab - c) from (1, 1, 1) along the
    0-based vertex path; the triples of every cluster on the path."""
    t = [1, 1, 1]
    out = [tuple(t)]
    for k in path:
        i, j = (v for v in range(3) if v != k)
        t[k] = 3 * t[i] * t[j] - t[k]
        out.append(tuple(t))
    return out


# -- GF(p) term dictionaries --------------------------------------------------


def gf_mul(a: dict, b: dict, p: int) -> dict:
    """Plain dict convolution of two term maps over GF(p)."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = (out.get(e, 0) + ca * cb) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def gf_pow(a: dict, k: int, p: int, n: int) -> dict:
    out = {(0,) * n: 1}
    for _ in range(k):
        out = gf_mul(out, a, p)
    return out


def gf_normalize(terms: dict, p: int) -> dict:
    out = {}
    for e, c in terms.items():
        if isinstance(c, Fraction):
            c = c.numerator * pow(c.denominator, -1, p)
        if c % p:
            out[e] = c % p
    return out


def residue_filter(terms: dict, q: int, residue: int) -> dict:
    """Keep the terms whose exponents are all congruent to `residue` mod q
    and map each such exponent a to (a - residue) / q."""
    return {tuple((a - residue) // q for a in e): c
            for e, c in terms.items()
            if all(a % q == residue for a in e)}


def degree_bounded_count(nvars: int, degree: int) -> int:
    """Monomials of total degree <= degree in nvars variables."""
    return math.comb(nvars + degree, degree)
