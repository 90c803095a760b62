"""The bulk parsers against the line-by-line reference in parse_reference.

On every text the two must agree: an equal Graph or VertexWeights, or a
ValueError with the same message.  An internal error (RuntimeError) from
the bulk parser means it refused text the reference reads.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

import parse_reference as ref
from orientlight.graph import MAX_VERTICES, parse_graph, parse_weights

# tokens int() reads in odd forms, tokens it refuses, and the ';' the
# bulk reader joins lines with
ODD_INTS = ["+3", "007", "1_0", "٣", "²", "0", "-1", "x", ";", "1.0", "#1", "9" * 5000]
ODD_COSTS = [
    "1e3", "1E2", ".5", "5.", "-0", "+2", "-2", "1_000.5", "1.0_5", "NaN", "sNaN", "Infinity",
    "-Inf", "1.50", "0.000", "00", "0e100", "1e59", "1e-1000000", "1.2.3", ".", ";", "x",
    "٣", "²", "1." + "0" * 60, "1." + "0" * 61, "9" * 59, "9" * 60,
    "0" * 5 + "9" * 59, "0" * 5 + "9" * 60, "0" * 5000 + "1", "4" * 5000, "0." + "5" * 58,
]
BREAKS = ["\n", "\r\n", "\r", "\v", "\x1c", " "]
GAPS = [" ", "\t", "  ", "　", "\xa0", " \t "]
FILLERS = ["", "   ", "\t", "# note", "  # indented note", "#", "1 2 3", "5", ";", "1 ; 2", "# 1 2"]


def outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ValueError as ex:
        return "error", str(ex)


def agree(new, old, *args):
    expected = outcome(old, *args)
    assert outcome(new, *args) == expected, args
    return expected[0]


def agree_graph(text):
    return agree(parse_graph, ref.parse_graph, text)


def agree_weights(text, n):
    return agree(parse_weights, ref.parse_weights, text, n)


def random_edges(rng, n, m):
    """m distinct non-loop pairs of 1-based labels in random order, by rejection."""
    seen, edges = set(), []
    while len(edges) < m:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v))
    return edges


def join(rng, rows, extra):
    """rows of tokens as text, with random gaps, line breaks and filler lines."""
    lines = [rng.choice(GAPS if rng.random() < 0.2 else [" "]).join(row) for row in rows]
    for _ in range(extra):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(FILLERS))
    brk = rng.choice(BREAKS) if rng.random() < 0.3 else "\n"
    return brk.join(lines) + (brk if rng.random() < 0.7 else "")


def mutate(rng, rows, odd):
    """rows with one random fault-prone change."""
    rows = [list(r) for r in rows]
    i = rng.randrange(len(rows))
    kind = rng.randrange(6)
    if kind == 0:
        rows[i][rng.randrange(len(rows[i]))] = rng.choice(odd)
    elif kind == 1 and len(rows) > 1:
        del rows[i]
    elif kind == 2:
        rows.insert(i, list(rows[rng.randrange(len(rows))]))
    elif kind == 3:
        rows[i] = rows[i][::-1]
    elif kind == 4:
        rows[i] = rows[i] + [rng.choice(odd)] if rng.random() < 0.5 else rows[i][:1]
    else:
        rows.insert(i, list(reversed(rows[rng.randrange(len(rows))])))
    return rows


class TestGraphCases:
    @pytest.mark.parametrize("text", [
        "3 3\r\n1 2\r\n2 3\r\n1 3\r\n",
        "3 3\r1 2\r2 3\r1 3",
        "3\t3\n1\t2\n 2 3 \n\t1    3\t\n",
        "# before\n3 3\n# after\n1 2\n2 3\n\n1 3\n# end\n",
        "  # indented\n3 2\n   \n1 2\n\t\n2 3\n",
        "+12 3\n007 1_0\n٣ +2\n1 12\n",
        "4 2\n٣ ١\n1 4",
        "0 0\n",
        "5 0\n# no edges\n",
        f"{MAX_VERTICES} 1\n1 {MAX_VERTICES}\n",
    ])
    def test_valid_forms(self, text):
        assert agree_graph(text) == "ok"

    @pytest.mark.parametrize("text", [
        "3 1\n1 ²\n",
        "3 1\n0 2\n",
        "3 1\n1 4\n",
        "3 1\n2 2\n",
        "3 2\n1 2\n2 1\n",
        "3 1\n1 2\n2 3\n",
        "3 3\n1 2\n2 3\n",
        "",
        "# only a comment\n\n",
        "3 1 1\n1 2\n",
        "3\n1 2\n",
        f"{MAX_VERTICES + 1} 0\n",
        "-1 0\n",
        "3 -1\n",
        "x 1\n1 2\n",
        "3 1\n1 ;\n",
        "3 2\n1\n; 2 3\n",
        "3 1\n1 2 ;\n",
        "3 2\n1 2 3\n2\n",
        "3 2\n1 1\n5 2\n",
        "3 3\n2 1\n1 2\n0 3\n",
        "3 1\n1 2\n# fine\n2 3\n1 x\n",
    ])
    def test_faults_carry_the_same_message(self, text):
        assert agree_graph(text) == "error"

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_mutations(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            n = rng.randrange(2, 9)
            edges = random_edges(rng, n, rng.randrange(0, min(8, n * (n - 1) // 2) + 1))
            rows = [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]
            for _ in range(rng.randrange(3)):
                rows = mutate(rng, rows, ODD_INTS + [str(n + 1), "1", "2"])
            agree_graph(join(rng, rows, rng.randrange(3)))


class TestWeightsCases:
    @pytest.mark.parametrize("cost", ODD_COSTS)
    def test_every_cost_form(self, cost):
        agree_weights(f"1 2.5\n2 {cost}\n3 7\n", 3)
        agree_weights(f"2 {cost}\n", 3)

    @pytest.mark.parametrize("text", [
        "1 0.5\r\n2 1.25\r\n",
        "1 0.5\r2 1.25",
        "# costs\n\n1\t0.5\n  \n 2  1.250 \n# end",
        "",
        "# nothing\n",
        "+1 3\n02 4\n٣ 1e3\n",
        "1 " + "0" * 5 + "9" * 59 + "\n2 0.5",
        "1 " + "7" * 59 + "." + "3" * 60 + "\n",
    ])
    def test_valid_forms(self, text):
        assert agree_weights(text, 3) == "ok"

    @pytest.mark.parametrize("text", [
        "0 1\n",
        "4 1\n",
        "1 1\n1 2\n",
        "1 2\n+1 3\n",
        "1\n",
        "1 2 3\n",
        "x 1\n",
        "; 1\n",
        "1 ;\n",
        "1 2\n;\n2 3\n",
        "1 -5\n2 x\n",
        "1 1e3\n2 NaN\n3 -1\n",
        "1 1\n2 " + "1" * 61 + "\n4 1\n",
    ])
    def test_faults_carry_the_same_message(self, text):
        assert agree_weights(text, 3) == "error"

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_mutations(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(150):
            n = rng.randrange(1, 8)
            labels = rng.sample(range(1, n + 1), rng.randrange(0, n + 1))
            rows = [[str(v), f"{rng.randrange(0, 1000) / 100:g}"] for v in labels]
            for _ in range(rng.randrange(3) if rows else 0):
                rows = mutate(rng, rows, ODD_COSTS + ["0", str(n + 1), "+1", "02"])
            if rows:
                agree_weights(join(rng, rows, rng.randrange(3)), n)


class TestLargeFile:
    """About 50k edges: equal graphs, and no higher memory peak."""

    @pytest.fixture(scope="class")
    def text(self):
        rng = random.Random(50_000)
        n, m = 20_000, 50_000
        lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in random_edges(rng, n, m)]
        return "\n".join(lines) + "\n"

    def test_same_graph_and_no_higher_peak(self, text):
        peaks = []
        graphs = []
        for parse in (ref.parse_graph, parse_graph):
            tracemalloc.start()
            try:
                graphs.append(parse(text))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert graphs[0] == graphs[1]
        assert graphs[1].m == 50_000
        assert peaks[1] <= peaks[0], peaks

    @pytest.mark.parametrize("parse", [ref.parse_graph, parse_graph], ids=["reference", "bulk"])
    @pytest.mark.parametrize("text", [
        f"{MAX_VERTICES} 1000000000\n1 2\n",
        f"{MAX_VERTICES} 3\n1 2\n2 3\n1 {MAX_VERTICES}\n",
    ])
    def test_nothing_sized_by_the_header(self, parse, text):
        tracemalloc.start()
        try:
            outcome(parse, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_a_refusal_with_no_faulty_line_is_an_internal_error(monkeypatch):
    import orientlight.graph as graph

    monkeypatch.setattr(graph, "_pairs", lambda text: None)
    with pytest.raises(RuntimeError, match=r"^internal error: parse_graph .*\(n=3, m=1\)$"):
        parse_graph("3 1\n1 2\n")
    with pytest.raises(RuntimeError, match=r"^internal error: parse_weights .*\(n=3, 1 cost lines\)$"):
        parse_weights("1 2\n", 3)
