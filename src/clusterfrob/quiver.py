"""Quivers as skew-symmetric exchange matrices with a frozen vertex set.

Vertices are 0-based internally; the JSON file format is 1-based.  A quiver
with B[i][j] = m > 0 has m arrows i -> j.  Loops never exist (B[i][i] = 0)
and 2-cycles cancel by skew-symmetry.  An isolated vertex carries no
mutation data, so construction adds every isolated vertex to the frozen set
(construction imposes the convention, `freeze` included, and mutation
preserves it: mutation never isolates a vertex, so the frozen set really
is unchanged under mutate).

Public construction (files, the corpus, `freeze`, callers) validates
every entry.  Mutation does not: it keeps a valid quiver valid, so it
builds its result unchecked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import (MutationAtFrozenError, NoMutableVertexError,
                     QuiverFormatError)

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Quiver:
    n: int
    b: Matrix
    frozen: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("a quiver needs at least one vertex")
        b = tuple(tuple(row) for row in self.b)
        if len(b) != self.n or any(len(row) != self.n for row in b):
            raise ValueError(f"exchange matrix must be {self.n}x{self.n}")
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                if not _is_int(x):
                    raise TypeError("exchange matrix entries must be ints")
                if x != -b[j][i]:
                    raise ValueError(f"matrix not skew-symmetric at ({i},{j})")
        frozen = frozenset(self.frozen)
        if not all(_is_int(v) and 0 <= v < self.n for v in frozen):
            raise ValueError("frozen set contains an out-of-range vertex")
        # isolated-vertex convention
        for i, row in enumerate(b):
            if not any(row):
                frozen = frozen | {i}
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "frozen", frozen)

    @classmethod
    def _unchecked(cls, n: int, b: Matrix, frozen: frozenset[int]
                   ) -> "Quiver":
        """A quiver from fields already valid: b a skew-symmetric tuple of
        int tuples, frozen a frozenset holding every isolated vertex.  No
        check runs."""
        q = object.__new__(cls)
        object.__setattr__(q, "n", n)
        object.__setattr__(q, "b", b)
        object.__setattr__(q, "frozen", frozen)
        return q

    # -- basic views ---------------------------------------------------------

    @property
    def mutable(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.frozen)

    def arrows(self) -> list[tuple[int, int, int]]:
        """Sorted (source, target, multiplicity) triples, 0-based."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if self.b[i][j] > 0:
                    out.append((i, j, self.b[i][j]))
        return out

    def exchange_exponents(self, k: int
                           ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(plus, minus) read off column k of B: plus[j] = m for the m
        arrows j -> k, minus[j] = m for the m arrows k -> j.  Frozen k is
        allowed."""
        if not 0 <= k < self.n:
            raise IndexError(f"vertex {k} out of range")
        col = [row[k] for row in self.b]
        return (tuple(m if m > 0 else 0 for m in col),
                tuple(-m if m < 0 else 0 for m in col))

    # -- mutation -------------------------------------------------------------

    def mutate(self, k: int) -> "Quiver":
        """Quiver mutation at a mutable vertex k.  Only row k and the rows
        i with b_ik != 0 change; every other row is kept as it is.

        The result is built unchecked, for mutation keeps every property
        construction checks: the new b is a skew-symmetric tuple of int
        tuples, and since row and column k only change sign and every
        other row without b_ik is kept, no vertex becomes or stops being
        isolated, so the frozen set is unchanged."""
        if not 0 <= k < self.n:
            raise IndexError(f"vertex {k} out of range")
        if k in self.frozen:
            raise MutationAtFrozenError(f"vertex {k} is frozen")
        bk = self.b[k]
        rows = []
        for i, row in enumerate(self.b):
            bik = row[k]
            if i == k:
                row = tuple(-x for x in row)
            elif bik:
                # b_ij += sgn(b_ik) max(b_ik b_kj, 0): b_ik |b_kj| when
                # b_ik and b_kj have the same sign
                new = [x + bik * abs(bkj) if (bkj > 0 if bik > 0 else bkj < 0)
                       else x for x, bkj in zip(row, bk)]
                new[k] = -bik
                row = tuple(new)
            rows.append(row)
        return Quiver._unchecked(self.n, tuple(rows), self.frozen)

    # -- structure tests --------------------------------------------------------

    def is_acyclic(self) -> bool:
        """True when the mutable subquiver has no oriented cycle."""
        mut = self.mutable
        color = {v: 0 for v in mut}  # 0 new, 1 active, 2 done

        def dfs(v: int) -> bool:
            color[v] = 1
            for w in mut:
                if self.b[v][w] > 0:
                    if color[w] == 1:
                        return False
                    if color[w] == 0 and not dfs(w):
                        return False
            color[v] = 2
            return True

        return all(dfs(v) for v in mut if color[v] == 0)

    def find_sink(self) -> int:
        """Smallest mutable vertex with no arrows into other mutable
        vertices.  Exists whenever the mutable subquiver is acyclic."""
        mut = self.mutable
        if not mut:
            raise NoMutableVertexError("no mutable vertex")
        for k in mut:
            if all(self.b[k][j] <= 0 for j in mut):
                return k
        raise NoMutableVertexError(
            "no sink: the mutable subquiver has a cycle")

    def freeze(self, vertices) -> "Quiver":
        """Freeze additional vertices (construction re-imposes the
        isolated-vertex convention)."""
        extra = frozenset(vertices)
        bad = [v for v in extra if not 0 <= v < self.n]
        if bad:
            raise ValueError(f"cannot freeze out-of-range vertices {bad}")
        return Quiver(self.n, self.b, self.frozen | extra)

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "frozen": [v + 1 for v in sorted(self.frozen)],
            "arrows": [[i + 1, j + 1, m] for i, j, m in self.arrows()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    def digest(self) -> str:
        """Short stable content hash used in certificates."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


def _is_int(x) -> bool:
    """An int that is not a bool: a bool counts no arrows, names no vertex."""
    return isinstance(x, int) and not isinstance(x, bool)


def quiver_from_dict(data: dict, source: str = "<quiver>") -> Quiver:
    """Validate the {"n":..., "frozen":..., "arrows":...} shape (1-based)."""

    def bad(msg: str) -> QuiverFormatError:
        return QuiverFormatError(f"{source}: {msg}")

    if not isinstance(data, dict):
        raise bad("top level must be a JSON object")
    unknown = set(data) - {"n", "frozen", "arrows", "vars"}
    if unknown:
        raise bad(f"unknown keys {sorted(unknown)}")
    n = data.get("n")
    if not _is_int(n) or n < 1:
        raise bad(f"'n' must be a positive integer, got {n!r}")
    frozen_raw = data.get("frozen", [])
    if not isinstance(frozen_raw, list):
        raise bad("'frozen' must be a list")
    frozen = set()
    for v in frozen_raw:
        if not _is_int(v) or not 1 <= v <= n:
            raise bad(f"frozen vertex {v!r} out of range 1..{n}")
        frozen.add(v - 1)
    arrows = data.get("arrows", [])
    if not isinstance(arrows, list):
        raise bad("'arrows' must be a list")
    b = [[0] * n for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for entry in arrows:
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(map(_is_int, entry))):
            raise bad(f"arrow {entry!r} must be [from, to, multiplicity]")
        i, j, m = entry
        if not 1 <= i <= n or not 1 <= j <= n:
            raise bad(f"arrow {entry} endpoint out of range 1..{n}")
        if i == j:
            raise bad(f"arrow {entry} is a loop")
        if m < 0:
            raise bad(f"arrow {entry} has negative multiplicity")
        if (i, j) in seen:
            raise bad(f"duplicate arrow ({i}, {j})")
        seen.add((i, j))
        b[i - 1][j - 1] += m
        b[j - 1][i - 1] -= m
    try:
        return Quiver(n, tuple(tuple(row) for row in b), frozenset(frozen))
    except (ValueError, TypeError) as exc:
        raise bad(str(exc)) from exc


def load_quiver_text(text: str, source: str = "<quiver>") -> Quiver:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverFormatError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return quiver_from_dict(data, source)
