"""Fast self-tests of the benchmark itself.

    python3 benchmark/selftest.py        (from the repository root)

They check that the checker rejects wrong answers, that inputs repeat
byte for byte for one seed, that the stored optima match the corpus and
the two reference routes agree, and that the per-layer counts of two
traced runs repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import check
import inputs
import reference

HERE = Path(__file__).resolve().parent
TRIANGLE = inputs.Instance("triangle", 3, ((0, 1), (1, 2), (0, 2)), None)


def _solution(tails, light, objective, constant, matching_value, offset):
    return SimpleNamespace(
        orientation=SimpleNamespace(tails=tails),
        light_set=frozenset(light),
        objective=objective,
        certificate=SimpleNamespace(constant=constant, matching_value=matching_value, offset=offset),
    )


class CheckerTest(unittest.TestCase):
    def test_accepts_an_optimal_answer(self):
        # 0 -> 1, 1 -> 2, 0 -> 2: vertex 0 is heavy, 1 and 2 are light
        sol = _solution((0, 1, 0), {1, 2}, 2, 6, 4, 0)
        self.assertEqual(check.solution_problems(TRIANGLE, Fraction(2), sol), [])

    def test_rejects_a_wrong_objective(self):
        sol = _solution((0, 1, 0), {1, 2}, 1, 6, 5, 0)
        found = check.solution_problems(TRIANGLE, Fraction(2), sol)
        self.assertTrue(any("disagrees with the recount" in p for p in found), found)

    def test_rejects_a_valid_but_non_optimal_orientation(self):
        # the directed cycle leaves every vertex light; the answer is
        # consistent with itself and its certificate, but not optimal
        sol = _solution((0, 1, 2), {0, 1, 2}, 3, 6, 3, 0)
        found = check.solution_problems(TRIANGLE, Fraction(2), sol)
        self.assertEqual(found, ["recounted objective 3 is not the optimum 2"])

    def test_rejects_a_broken_certificate(self):
        sol = _solution((0, 1, 0), {1, 2}, 2, 6, 3, 0)
        self.assertTrue(check.solution_problems(TRIANGLE, Fraction(2), sol))

    def test_command_line_answers(self):
        doc = {
            "objective": 2,
            "light": [2, 3],
            "orientation": [[1, 2], [2, 3], [1, 3]],
            "certificate": {"matching_value": 4, "constant": 6, "offset": 0},
        }
        ok = (0, json.dumps(doc), 0, "verify: OK\n")
        self.assertEqual(check.cli_problems(TRIANGLE, Fraction(2), ok), [])
        cyclic = dict(doc, objective=3, light=[1, 2, 3], orientation=[[1, 2], [2, 3], [3, 1]])
        cyclic["certificate"] = {"matching_value": 3, "constant": 6, "offset": 0}
        self.assertTrue(check.cli_problems(TRIANGLE, Fraction(2), (0, json.dumps(cyclic), 0, "verify: OK\n")))
        self.assertTrue(check.cli_problems(TRIANGLE, Fraction(2), (0, json.dumps(doc), 1, "verify: FAIL\n")))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in inputs.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                pa = inputs.write_pool(inputs.pool(workload, 7), Path(a))
                pb = inputs.write_pool(inputs.pool(workload, 7), Path(b))
                files_a = [p.read_bytes() for pair in pa for p in pair if p]
                files_b = [p.read_bytes() for pair in pb for p in pair if p]
                self.assertEqual(files_a, files_b)
            names = lambda seed: [i.name for i in inputs.pool(workload, seed)]
            self.assertNotEqual(names(7), names(8))

    def test_pools_keep_their_make_up(self):
        for workload, strata in inputs.WORKLOADS.items():
            for seed in (1, 2):
                got = [i.name.rsplit("-", 1)[0] for i in inputs.pool(workload, seed)]
                self.assertEqual(sorted(got), sorted(s.name for s in strata for _ in range(s.take)))

    def test_stored_optima_match_the_corpus(self):
        stored = reference.load()
        for workload in inputs.WORKLOADS:
            corpus = inputs.corpus(workload)
            self.assertEqual(sorted(stored[workload]), sorted(i.name for i in corpus))
            for inst in corpus:
                self.assertEqual(stored[workload][inst.name]["digest"], inst.digest())

    def test_reference_routes_agree(self):
        for inst in inputs.corpus("small-cli")[::12]:
            self.assertEqual(reference.enumerate_optimum(inst), reference.gadget_optimum(inst)[0])


class TraceTest(unittest.TestCase):
    def _counts(self, root: Path) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "small-cli", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    def test_counts_repeat_exactly(self):
        root = HERE.parent
        first, second = self._counts(root), self._counts(root)
        self.assertEqual(first, second)
        self.assertGreater(first["reduction.gadget_vertices"], 0)
        self.assertGreater(first["matching.cardinality_calls"], 0)
        self.assertGreater(first["matching.weighted_calls"], 0)


if __name__ == "__main__":
    unittest.main()
