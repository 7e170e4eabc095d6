"""Bundled example quivers.

a2, a3           -- type A orientations 1->2(->3)
markov           -- double arrows 1->2->3->1
markov3, markov4 -- the same triangle with 3- and 4-fold arrows
cycle3-frozen    -- single 3-cycle with vertex 2 frozen
path3-frozen     -- path 1->2->3 with vertex 3 frozen
mixed-pair       -- one mutable vertex fed by one frozen vertex (2->1)
"""

from __future__ import annotations

from importlib import resources

from .quiver import Quiver, load_quiver_text

NAMES = ("a2", "a3", "markov", "markov3", "markov4",
         "cycle3-frozen", "path3-frozen", "mixed-pair")

ACYCLIC_NAMES = ("a2", "a3", "cycle3-frozen", "path3-frozen", "mixed-pair")


def names() -> tuple[str, ...]:
    return NAMES


def load(name: str) -> Quiver:
    base = name[:-len(".quiver")] if name.endswith(".quiver") else name
    if base not in NAMES:
        raise KeyError(f"no bundled quiver named {name!r}; "
                       f"choices: {', '.join(NAMES)}")
    text = (resources.files(__package__) / "corpus"
            / f"{base}.quiver").read_text(encoding="utf-8")
    return load_quiver_text(text, source=f"corpus:{base}")

