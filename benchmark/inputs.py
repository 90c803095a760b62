"""Seeded inputs of the three workloads.

Every workload draws its instances from a fixed corpus whose optima are
stored in optima.json (remade by reference.py).  The corpus is split
into strata of one shape each; --seed picks the same number of
instances from every stratum and shuffles the pick into the pass order.
So every seed gives a pool of the same make-up, and the same seed gives
byte-identical input files.

Graph files use the program's text format ("n m" header, then 1-based
"u v" lines); cost files hold one "v cost" line per vertex with up to
two decimal places.  Costs are kept here as integer hundredths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

_U64 = (1 << 64) - 1
CORPUS_SEED = 14108154
COST_SCALE = 100


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self._state = seed & _U64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class Instance:
    """One input: 0-based edges, and costs in hundredths or None."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    units: tuple[int, ...] | None

    def graph_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u + 1} {v + 1}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def cost_text(self) -> str:
        return "".join(f"{v + 1} {_decimal(c)}\n" for v, c in enumerate(self.units))

    def digest(self) -> str:
        h = hashlib.sha256(self.graph_text().encode())
        if self.units is not None:
            h.update(b"\0" + self.cost_text().encode())
        return h.hexdigest()[:16]


def _decimal(units: int) -> str:
    whole, frac = divmod(units, COST_SCALE)
    return str(whole) if frac == 0 else f"{whole}.{frac:02d}".rstrip("0")


def _relabel(rng: SplitMix64, n: int, edges: list[tuple[int, int]]) -> tuple:
    """Random vertex labels and edge order, so no shape arrives sorted."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges]
    rng.shuffle(out)
    return tuple(out)


def _gnm(rng: SplitMix64, n: int, m: int) -> list[tuple[int, int]]:
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u, v = rng.below(n), rng.below(n)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    return edges


def _costs(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Costs in 0..10 with up to two decimals; about a tenth are zero."""
    return tuple(0 if rng.below(10) == 0 else rng.between(1, 10 * COST_SCALE) for _ in range(n))


def _tree(rng: SplitMix64, n: int, first: int = 0) -> list[tuple[int, int]]:
    return [(first + rng.below(i), first + i) for i in range(1, n)]


def _shape_tree(rng):
    n = rng.between(6, 13)
    return n, _tree(rng, n)


def _shape_forest(rng):
    sizes = [rng.between(2, 5)] + [rng.between(1, 5) for _ in range(rng.between(1, 2))]
    edges, first = [], 0
    for s in sizes:
        edges += _tree(rng, s, first)
        first += s
    return first, edges


def _shape_path(rng):
    n = rng.between(5, 13)
    return n, [(i, i + 1) for i in range(n - 1)]


def _shape_cycle(rng):
    n = rng.between(4, 12)
    return n, [(i, (i + 1) % n) for i in range(n)]


def _shape_pendant(rng):
    """A short cycle with pendant paths hung on it, plus isolated vertices."""
    c = rng.between(3, 5)
    edges = [(i, (i + 1) % c) for i in range(c)]
    n = c
    for _ in range(rng.between(4, 12 - c)):
        edges.append((rng.below(n), n))
        n += 1
    return n + rng.between(1, 3), edges


def _shape_dense(rng):
    n = rng.between(5, 6)
    return n, _gnm(rng, n, rng.between(8, 10 if n == 5 else 13))


def _sparse(n: int):
    return lambda rng: (n, _gnm(rng, n, 3 * n))


@dataclass(frozen=True)
class Stratum:
    name: str
    shape: object
    weighted: bool
    corpus: int
    take: int


SMALL_SHAPES = [
    ("tree", _shape_tree, 5),
    ("forest", _shape_forest, 4),
    ("path", _shape_path, 4),
    ("cycle", _shape_cycle, 4),
    ("pendant", _shape_pendant, 10),
    ("dense", _shape_dense, 3),
]

WORKLOADS: dict[str, list[Stratum]] = {
    "sparse-unweighted": [Stratum("n150", _sparse(150), False, 40, 20)],
    "sparse-weighted": [Stratum("n60", _sparse(60), True, 40, 20)],
    "small-cli": [
        Stratum(f"{shape}-{'w' if w else 'u'}", fn, w, 4 * take, take)
        for shape, fn, take in SMALL_SHAPES
        for w in (False, True)
    ],
}


def _keyed(key: str) -> SplitMix64:
    return SplitMix64(int(hashlib.sha256(key.encode()).hexdigest()[:16], 16))


def _make(workload: str, stratum: Stratum, index: int) -> Instance:
    rng = _keyed(f"{CORPUS_SEED}/{workload}/{stratum.name}/{index}")
    n, edges = stratum.shape(rng)
    units = _costs(rng, n) if stratum.weighted else None
    return Instance(f"{stratum.name}-{index:03d}", n, _relabel(rng, n, edges), units)


def corpus(workload: str) -> list[Instance]:
    """Every instance a pool of this workload can hold, in a fixed order."""
    return [
        _make(workload, s, i) for s in WORKLOADS[workload] for i in range(s.corpus)
    ]


def degrees(inst: Instance) -> list[int]:
    deg = [0] * inst.n
    for u, v in inst.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def pool(workload: str, seed: int) -> list[Instance]:
    """The instances of one pass for this seed, in pass order.

    Each stratum is sorted by degree-1 count, which tracks solve time on
    the sparse graphs, and cut into take equal bands; the seed picks one
    instance per band.  So pools of different seeds differ in their
    instances but hardly in their make-up.
    """
    rng = _keyed(f"pool/{workload}/{seed}")
    picked = []
    for s in WORKLOADS[workload]:
        members = sorted(
            (_make(workload, s, i) for i in range(s.corpus)), key=lambda i: degrees(i).count(1)
        )
        band = s.corpus // s.take
        picked += [members[b * band + rng.below(band)] for b in range(s.take)]
    rng.shuffle(picked)
    return picked


def write_pool(instances: list[Instance], directory: Path) -> list[tuple[Path, Path | None]]:
    """Writes each graph (and cost) file; returns their paths in pool order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, inst in enumerate(instances):
        g = directory / f"{i:03d}-{inst.name}.graph"
        g.write_text(inst.graph_text(), encoding="utf-8")
        w = None
        if inst.units is not None:
            w = directory / f"{i:03d}-{inst.name}.costs"
            w.write_text(inst.cost_text(), encoding="utf-8")
        paths.append((g, w))
    return paths
