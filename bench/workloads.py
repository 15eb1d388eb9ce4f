"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload builds its inputs in ``setup`` (from the seed alone), runs one
full pass of library work in ``solve``, checks that pass in ``check`` and
checks the stdout of its CLI counterpart in ``check_cli``. ``ladder`` gives
the passes of the traced scaling curve, smallest size first.

Workloads call the package through module attributes (``lb.run_trajectory``,
not a name imported from it), so the tracer's rebinding reaches them.
"""
from __future__ import annotations

import json
import math
import random

from qordsearch import lowerbound as lb
from qordsearch import oracle
from qordsearch import teamsearch as ts

# Exactness tolerance of the CLI's simulate command.
PROB_TOL = 1e-9

ALGORITHMS = {"binary": ts.BinarySearchAlgorithm, "team": ts.TeamCombineAlgorithm}


class Checks:
    """Counts output checks attempted and keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json_strict(text: str, checks: Checks):
    """Parse CLI JSON, rejecting bare NaN/Infinity; None (and a failed check) if invalid."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        checks.check(False, f"CLI output is not strict JSON: {exc}")
        return None
    checks.check(True, "CLI output is strict JSON")
    return payload


class Chain:
    """Chain-verified overlap trajectory of one algorithm over all answers."""

    def __init__(self, name: str, algo: str, n: int, fmt: str, ladder_sizes=()):
        self.name = name
        self.algo = algo
        self.n = n
        self.fmt = fmt
        # Only from-scratch algorithms start at the full pair weight.
        self.check_initial_weight = algo == "binary"
        self.ladder_sizes = ladder_sizes
        self.cli_args = ["trajectory", "--algo", algo, "--n", str(n)]
        if fmt == "json":
            self.cli_args += ["--format", "json"]

    def setup(self, seed: int):
        # The trajectory runs every answer, so the seed selects nothing here.
        self.algorithm = ALGORITHMS[self.algo](self.n)
        self.weights = lb.WeightSpec.inverse_distance(self.n)

    def solve(self):
        return lb.run_trajectory(self.algorithm, self.n, self.weights, verify_chain=True)

    def check(self, record, checks: Checks):
        for j, report in enumerate(record.chain_reports):
            checks.check(report.holds, f"step {j}: chain fails: {report.failures}")
            checks.check(
                report.pair_identity_err <= lb.CHAIN_TOL,
                f"step {j}: pair identity error {report.pair_identity_err:.3e}",
            )
        if self.check_initial_weight:
            expected = lb.total_weight(record.n)
            checks.check(
                abs(record.initial_overlap - expected) <= lb.CHAIN_TOL * expected,
                f"W_0 = {record.initial_overlap} differs from N*H_N - N = {expected}",
            )
        checks.check(
            abs(record.final_overlap) <= lb.CHAIN_TOL,
            f"W_T = {record.final_overlap} is not 0",
        )
        checks.check(
            record.telescoping_error() <= lb.CHAIN_TOL,
            f"telescoping error {record.telescoping_error():.3e}",
        )

    def check_cli(self, stdout: str, record, checks: Checks):
        if self.fmt == "csv":
            checks.check(stdout == record.to_csv(), "CLI CSV differs from to_csv()")
            return
        payload = parse_json_strict(stdout, checks)
        if payload is None:
            return
        expected_steps = [
            [s.j, s.overlap.real, s.overlap.imag, None if s.drop is None else abs(s.drop)]
            for s in record.steps
        ]
        try:
            steps = [
                [s["j"], s["W_re"], s["W_im"], s["drop_abs"]] for s in payload["steps"]
            ]
            header = (payload["n"], payload["algo"], payload["bound"])
        except (KeyError, TypeError) as exc:
            checks.check(False, f"CLI JSON lacks a field: {exc!r}")
            return
        checks.check(
            header == (self.n, self.algo, record.bound) and steps == expected_steps,
            "CLI JSON trajectory differs from the library's",
        )

    def ladder(self):
        """(size, pass) per rung; pass None means the main pass at this size."""
        for size in self.ladder_sizes:
            if size == self.n:
                yield size, None
                continue
            algorithm = ALGORITHMS[self.algo](size)
            weights = lb.WeightSpec.inverse_distance(size)
            yield size, lambda a=algorithm, s=size, w=weights: lb.run_trajectory(
                a, s, w, verify_chain=True
            )


def _sweep(runs):
    return [
        [(inst, ts.run_algorithm(algorithm, inst)) for inst in instances]
        for algorithm, instances in runs
    ]


class ExactSweep:
    """Every instance of a team and a binary search, in seed-shuffled order."""

    name = "exact-sweep"

    def __init__(self, team_n: int, binary_n: int, ladder_sizes=()):
        self.team_n = team_n
        self.binary_n = binary_n
        self.ladder_sizes = ladder_sizes
        self.cli_args = ["simulate", "--algo", "team", "--n", str(team_n)]

    def setup(self, seed: int):
        self.rng = random.Random(seed)
        self.runs = [
            self._shuffled(ts.TeamCombineAlgorithm(self.team_n)),
            self._shuffled(ts.BinarySearchAlgorithm(self.binary_n)),
        ]

    def _shuffled(self, algorithm):
        instances = oracle.enumerate_instances(algorithm.n)
        self.rng.shuffle(instances)
        return algorithm, instances

    def solve(self):
        return _sweep(self.runs)

    def check(self, sweeps, checks: Checks):
        for outcomes in sweeps:
            for inst, result in outcomes:
                checks.check(
                    result.answer == inst.answer
                    and abs(result.probability - 1.0) <= PROB_TOL,
                    f"n={inst.n} answer {inst.answer}: found {result.answer} "
                    f"with probability {result.probability!r}",
                )

    def check_cli(self, stdout: str, sweeps, checks: Checks):
        payload = parse_json_strict(stdout, checks)
        if payload is None:
            return
        by_answer = {inst.answer: result for inst, result in sweeps[0]}
        expected = [
            {
                "answer": a,
                "answer_found": by_answer[a].answer,
                "probability": by_answer[a].probability,
                "queries": by_answer[a].queries,
                "correct": True,
            }
            for a in range(self.team_n)
        ]
        checks.check(
            payload
            == {"n": self.team_n, "algo": "team", "results": expected, "all_exact": True},
            "CLI simulate output differs from the library's exact sweep",
        )

    def ladder(self):
        for size in self.ladder_sizes:
            runs = [self._shuffled(ts.TeamCombineAlgorithm(size))]
            yield size, lambda r=runs: _sweep(r)


def _log_uniform(rng: random.Random, low: float, high: float) -> int:
    return int(math.exp(rng.uniform(math.log(low), math.log(high))))


class Accounting:
    """Digit decomposition, the query-count model and the matrix norms."""

    name = "accounting"

    def __init__(self, values: int, sizes: int, matrix_size: int):
        self.value_count = values
        self.size_count = sizes
        self.matrix_size = matrix_size
        self.cli_args = ["norms", "--size", str(matrix_size)]

    def setup(self, seed: int):
        rng = random.Random(seed)
        self.values = [_log_uniform(rng, 1, 1e9) for _ in range(self.value_count)]
        self.sizes = [_log_uniform(rng, 2, 1e6) for _ in range(self.size_count)]

    def solve(self):
        decompositions = []
        for m in self.values:
            d = ts.decompose(m)
            decompositions.append((m, d, d.value()))
        counts = [(n, ts.query_count_model(n).queries) for n in self.sizes]
        hilbert = lb.spectral_norm(lb.hilbert_matrix(self.matrix_size))
        hankel = lb.spectral_norm(lb.hankel_matrix(self.matrix_size))
        return decompositions, counts, (hilbert, hankel)

    def check(self, result, checks: Checks):
        decompositions, counts, (hilbert, hankel) = result
        for m, d, value in decompositions:
            checks.check(
                value == m and all(0 <= digit <= 3 for digit in d.digits),
                f"decompose({m}) = {d.digits} reconstructs {value}",
            )
        for n, queries in counts:
            checks.check(
                queries >= ts.ceil_log3(n),
                f"query_count_model({n}) = {queries} is below ceil(log3 n)",
            )
        checks.check(hilbert < math.pi, f"Hilbert norm {hilbert!r} is not below pi")
        checks.check(hankel < math.pi, f"Hankel norm {hankel!r} is not below pi")
        checks.check(hankel <= hilbert, f"Hankel norm {hankel!r} exceeds Hilbert {hilbert!r}")

    def check_cli(self, stdout: str, result, checks: Checks):
        payload = parse_json_strict(stdout, checks)
        if payload is None:
            return
        hilbert, hankel = result[2]
        checks.check(
            payload
            == {"size": self.matrix_size, "hilbert_norm": hilbert, "hankel_norm": hankel},
            "CLI norms differ from the library's",
        )


def build(name: str, smoke: bool):
    """The named workload at benchmark size, or at tiny size for the smoke test."""
    if name == "chain-binary":
        n = 16 if smoke else 256
        return Chain(name, "binary", n, "csv", ladder_sizes=(n // 4, n // 2, n))
    if name == "chain-team":
        return Chain(name, "team", 32 if smoke else 512, "json")
    if name == "exact-sweep":
        team_n, binary_n = (128, 64) if smoke else (2048, 4096)
        return ExactSweep(team_n, binary_n, ladder_sizes=(team_n // 16, team_n // 4, team_n))
    if name == "accounting":
        return Accounting(2000, 200, 128) if smoke else Accounting(200_000, 20_000, 2048)
    raise ValueError(f"unknown workload {name!r}")
