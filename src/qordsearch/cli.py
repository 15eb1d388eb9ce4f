"""Command-line front end: simulations, bounds, trajectories, layouts, norms.

Every command emits plot-ready JSON or CSV with all floats at 17 significant
digits, so identical invocations are byte-identical and reruns diff cleanly,
whatever number of threads BLAS runs: the sums of the drop chain and of the
Lanczos norm are numpy's own loops, where a BLAS dot product splits its sum
by thread and so rounds it by thread count.
Exit codes: 0 on success, 1 when a checked invariant is violated, 2 on usage
errors. Integer options carry their ranges, shown in ``--help``: ``expansion``
and ``querycount`` stop where a result would pass the digit limit of an int.
"""
from __future__ import annotations

import math
import os
import sys
from json.encoder import encode_basestring_ascii

import click

from . import lowerbound, teamsearch

PROB_TOL = 1e-9
# A run of every answer (a sweep), and a trajectory, allocate arrays of
# length N: at 2**31 the trajectory's weight kernel alone is 32 GiB.
SWEEP_SIZE_LIMIT = 1 << 30
# Peak bytes of a sweep (`simulate` without --answer, and `trajectory`) per
# answer, plus per answer and opening level (one for binary search, log2(r)
# + 1 for the team): peak RSS over that of a size-1024 (binary) or size-512
# (team) run, in fresh processes, at most 1120 for binary 2^16 ... 2^20 and
# 1303-1559 for team 2^15 ... 2^19 (8 to 10 levels), about 130 more a level.
SWEEP_ANSWER_BYTES = 990
SWEEP_LEVEL_BYTES = 130
# Peak bytes per known bit of ``layout``: the tuples of ints and the JSON
# text. Peak RSS over that of r = 16 (four fresh processes each) gave
# 45.6-46.3 at r = 64, 57.9-58.1 at r = 128 and 53.9 at r = 256.
LAYOUT_BIT_BYTES = 59

ALGORITHMS = {"binary": teamsearch.BinarySearchAlgorithm,
              "team": teamsearch.TeamCombineAlgorithm}


def _render_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot render non-finite float {value!r} as JSON")
    return format(float(value), ".17g")


def _render_sequence(value) -> str:
    get = _RENDER.get
    return "[" + ",".join([get(type(v), render_json)(v) for v in value]) + "]"


def _render_dict(value: dict) -> str:
    get = _RENDER.get
    return "{" + ",".join(
        [
            f"{encode_basestring_ascii(str(k))}:{get(type(v), render_json)(v)}"
            for k, v in value.items()
        ]
    ) + "}"


# Renderers by type. render_json takes the first of a value's classes, in
# method resolution order, that has one, so a subclass (a numpy float among
# them) renders as its base type.
_RENDER = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: _render_float,
    str: encode_basestring_ascii,
    list: _render_sequence,
    tuple: _render_sequence,
    dict: _render_dict,
}


def render_json(value) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits.

    Non-finite floats raise ``ValueError``: strict JSON has no nan or inf.
    """
    for cls in type(value).__mro__:
        render = _RENDER.get(cls)
        if render is not None:
            return render(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def emit(text: str, out: str | None):
    """Write ``text`` to stdout, or to the file ``out``.

    A file that cannot be written is a usage error (exit 2), not a failed
    invariant (exit 1).
    """
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}")


def build_algorithm(algo: str, n: int, sweep: bool):
    """The algorithm ``algo`` at list size ``n``; a usage error if none is.

    A ``sweep`` (every answer in one ensemble) must also fit in memory, at
    ``SWEEP_ANSWER_BYTES`` per answer and ``SWEEP_LEVEL_BYTES`` per answer
    and opening level.
    """
    if sweep and n > SWEEP_SIZE_LIMIT:
        raise click.UsageError(
            f"list size {n} is past 2**30, the largest run of every answer"
        )
    try:
        teamsearch.require_int64_positions(n)
        algorithm = ALGORITHMS[algo](n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if sweep:
        per_answer = SWEEP_ANSWER_BYTES + SWEEP_LEVEL_BYTES * len(algorithm._levels)
        require_memory(
            per_answer * n,
            f"--n {n}",
            f"a sweep of every answer at {per_answer} bytes each",
        )
    return algorithm


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cgroup_memory_limit() -> int | None:
    """This process's cgroup v2 ``memory.max`` in bytes; None where the file
    is missing or unreadable, or holds ``max`` (no limit).

    The cgroup is the ``0::`` line of ``/proc/self/cgroup``.
    """
    try:
        for line in _read_text("/proc/self/cgroup").splitlines():
            if line.startswith("0::"):
                path = os.path.join("/sys/fs/cgroup", line[3:].lstrip("/"), "memory.max")
                limit = _read_text(path).strip()
                return int(limit) if limit.isdigit() else None
    except OSError:
        pass
    return None


def physical_memory() -> int | None:
    """Bytes of memory this process may use: physical memory, from
    ``os.sysconf``, or the cgroup v2 limit when that is lower; None where
    neither is known."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        physical = None
    known = [m for m in (physical, cgroup_memory_limit()) if m is not None]
    return min(known, default=None)


def require_memory(needed: int, option: str, what: str) -> None:
    """A usage error (exit 2) when ``needed`` bytes for ``what`` pass the
    memory this process may use, raised before anything is allocated; none
    where that is unknown."""
    memory = physical_memory()
    if memory is not None and needed > memory:
        raise click.UsageError(
            f"{option} needs {needed / 2**30:.3g} GiB for {what}, more than the "
            f"{memory / 2**30:.3g} GiB of memory (physical, or the cgroup limit)"
        )


# Ints of more digits than this have no text form (0: no limit).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class PrintableGrowth(click.IntRange):
    """Ints from ``min`` that still print grown by under 3x, as ``expansion``
    and ``querycount`` grow theirs; the bound reads 10**INT_DIGITS//3."""

    def __init__(self, min: int):
        super().__init__(min=min, max=10**INT_DIGITS // 3 or None)

    def _describe_range(self) -> str:
        return super()._describe_range().replace(str(self.max), f"10**{INT_DIGITS}//3")


def check_eps(eps: float) -> None:
    if not 0.0 <= eps <= 0.5:
        raise click.UsageError(f"--eps must lie in [0, 0.5], got {eps}")


out_option = click.option("--out", type=click.Path(dir_okay=False), default=None)


@click.group()
def main():
    """Quantum ordered-search simulations and bound verification."""


@main.command()
@click.option("--n", type=click.IntRange(min=2), required=True, help="List size.")
@click.option("--eps", type=float, default=0.0, show_default=True,
              help="Allowed error probability.")
@out_option
def bound(n, eps, out):
    """Query lower bound for ordered search at size N."""
    check_eps(eps)
    try:
        total = lowerbound.total_weight(n)
    except OverflowError as exc:
        raise click.UsageError(f"--n is too large: {exc}")
    payload = {
        "n": n,
        "eps": eps,
        "total_weight": total,
        "delta": math.pi * n,
        "bound": lowerbound.ordered_search_bound(n, eps),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--algo", type=click.Choice(list(ALGORITHMS)), default="binary",
              show_default=True)
@click.option("--n", type=click.IntRange(min=1), required=True, help="List size.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@out_option
@click.pass_context
def trajectory(ctx, algo, n, fmt, out):
    """Weighted-overlap trajectory of an algorithm, one row per query step.

    Exits with status 1 if any per-query drop exceeds the pi*N cap.
    """
    algorithm = build_algorithm(algo, n, sweep=True)
    weights = lowerbound.WeightSpec.inverse_distance(n)
    record = lowerbound.run_trajectory(algorithm, n, weights)
    if fmt == "csv":
        text = record.to_csv()
    else:
        payload = {
            "n": n,
            "algo": algo,
            "bound": record.bound,
            "steps": [
                {
                    "j": step.j,
                    "W_re": step.overlap,
                    "W_im": 0.0,
                    "drop_abs": None if step.drop is None else abs(step.drop),
                }
                for step in record.steps
            ],
        }
        text = render_json(payload) + "\n"
    emit(text, out)
    if not record.bound_satisfied():
        click.echo(
            f"per-query drop {record.max_drop_abs():.12g} exceeds the cap "
            f"{record.bound:.12g}",
            err=True,
        )
        ctx.exit(1)


@main.command()
@click.option("--algo", type=click.Choice(list(ALGORITHMS)), default="team",
              show_default=True)
@click.option("--n", type=click.IntRange(min=1), required=True, help="List size.")
@click.option("--answer", type=int, default=None,
              help="Instance to run; omit to sweep all N instances.")
@out_option
@click.pass_context
def simulate(ctx, algo, n, answer, out):
    """Run an algorithm and report the measured answer and its probability.

    Every instance (or only ``--answer``) is evolved in one ensemble, and
    each answer's outcome is read off the final one. Exits with status 1 if
    any run is not exact (probability off 1).
    """
    if answer is not None and not 0 <= answer < n:
        raise click.UsageError(
            f"--answer must lie in [0, {n - 1}], got {answer}"
        )
    algorithm = build_algorithm(algo, n, sweep=answer is None)
    targets = range(n) if answer is None else [answer]
    outcomes = teamsearch.run_ensemble(algorithm, answer)
    results = []
    exact = True
    for target, outcome in zip(targets, outcomes, strict=True):
        correct = (
            outcome.answer == target and abs(outcome.probability - 1.0) <= PROB_TOL
        )
        exact = exact and correct
        results.append(
            {
                "answer": target,
                "answer_found": outcome.answer,
                "probability": outcome.probability,
                "queries": outcome.queries,
                "correct": correct,
            }
        )
    payload = {"n": n, "algo": algo, "results": results, "all_exact": exact}
    if answer is not None:
        payload = {"n": n, "algo": algo, **results[0]}
    emit(render_json(payload) + "\n", out)
    if not exact:
        click.echo("algorithm failed to identify an answer exactly", err=True)
        ctx.exit(1)


@main.command()
@click.option("--r", type=int, required=True, help="Computer count (power of two).")
@out_option
def layout(r, out):
    """Explicitly-known-bit layout of r computers over a list of size 2*r*r."""
    try:
        bits = r * teamsearch.team_knowledge_size(r)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    require_memory(LAYOUT_BIT_BYTES * bits, f"--r {r}", f"the layout's {bits} known bits")
    built = teamsearch.build_layout(r)
    payload = {"r": built.r, "n_list": built.n_list, "computers": built.computers}
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--m", type=PrintableGrowth(min=1), required=True,
              help="Explicitly known bits.")
@out_option
def expansion(m, out):
    """Known bits after one more query round, and the expansion factor."""
    step = teamsearch.expansion(m)
    payload = {"m": m, "m_next": step.m_next, "F": step.factor}
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--size", type=click.IntRange(min=1), required=True, help="Matrix size.")
@out_option
def norms(size, out):
    """Spectral norms of the inverse-distance matrices at a given size."""
    # One dense matrix at a time, the Lanczos basis and 2 MiB: the peak RSS over
    # --size 1 passed the first two by at most 1.03 MiB at sizes 65 ... 8192.
    require_memory(
        8 * size * (size + lowerbound.LANCZOS_STEPS + 1) + (2 << 20),
        f"--size {size}",
        "a dense matrix and the Lanczos basis",
    )
    payload = {
        "size": size,
        "hilbert_norm": lowerbound.spectral_norm(lowerbound.hilbert_matrix(size)),
        "hankel_norm": lowerbound.spectral_norm(lowerbound.hankel_matrix(size)),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--m", type=click.IntRange(min=1), required=True,
              help="Value to decompose.")
@out_option
def decompose(m, out):
    """Digit expansion of m over the values (2*4**k + 1)/3, digits capped at 3."""
    decomposition = teamsearch.decompose(m)
    payload = {
        "m": m,
        "digits": list(decomposition.digits),
        "top": decomposition.top,
        "reconstructed": decomposition.value(),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--n", type=PrintableGrowth(min=2), required=True,
              help="List size to cover.")
@out_option
def querycount(n, out):
    """Iterated-expansion query count until n bits are known."""
    result = teamsearch.query_count_model(n)
    log3 = teamsearch.ceil_log3(n)
    payload = {
        "n": n,
        "queries": result.queries,
        "ceil_log3": log3,
        "overhead": result.queries - log3,
        "trace": list(result.trace),
    }
    emit(render_json(payload) + "\n", out)


if __name__ == "__main__":
    sys.exit(main())
