"""Command-line front end: simulations, bounds, trajectories, layouts, norms.

Every command emits plot-ready JSON or CSV with all floats at 17 significant
digits, so identical invocations are byte-identical and reruns diff cleanly.
Exit codes: 0 on success, 1 when a checked invariant is violated, 2 on usage
errors.
"""
from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii

import click

from . import lowerbound, teamsearch

PROB_TOL = 1e-9
# A run of every answer (a sweep), and a trajectory, allocate arrays of
# length N: at 2**31 the trajectory's weight kernel alone is 32 GiB.
SWEEP_SIZE_LIMIT = 1 << 30


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _render_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot render non-finite float {value!r} as JSON")
    return fmt_float(value)


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
    if sweep and n > SWEEP_SIZE_LIMIT:
        raise click.UsageError(
            f"list size {n} is past 2**30, the largest run of every answer"
        )
    try:
        teamsearch.require_int64_positions(n)
        if algo == "binary":
            return teamsearch.BinarySearchAlgorithm(n)
        if algo == "team":
            return teamsearch.TeamCombineAlgorithm(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown algorithm {algo!r}")


def check_eps(eps: float) -> float:
    if not 0.0 <= eps <= 0.5:
        raise click.UsageError(f"--eps must lie in [0, 0.5], got {eps}")
    return eps


@click.group()
def main():
    """Quantum ordered-search simulations and bound verification."""


@main.command()
@click.option("--n", type=int, required=True, help="List size.")
@click.option("--eps", type=float, default=0.0, show_default=True,
              help="Allowed error probability.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bound(n, eps, out):
    """Query lower bound for ordered search at size N."""
    check_eps(eps)
    if n < 2:
        raise click.UsageError(f"--n must be at least 2, got {n}")
    payload = {
        "n": n,
        "eps": eps,
        "total_weight": lowerbound.total_weight(n),
        "delta": math.pi * n,
        "bound": lowerbound.ordered_search_bound(n, eps),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--algo", type=click.Choice(["binary", "team"]), default="binary",
              show_default=True)
@click.option("--n", type=int, required=True, help="List size.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def trajectory(ctx, algo, n, fmt, out):
    """Weighted-overlap trajectory of an algorithm, one row per query step.

    Exits with status 1 if any per-query drop exceeds the pi*N cap.
    """
    if n < 1:
        raise click.UsageError(f"--n must be positive, got {n}")
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
@click.option("--algo", type=click.Choice(["binary", "team"]), default="team",
              show_default=True)
@click.option("--n", type=int, required=True, help="List size.")
@click.option("--answer", type=int, default=None,
              help="Instance to run; omit to sweep all N instances.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_context
def simulate(ctx, algo, n, answer, out):
    """Run an algorithm and report the measured answer and its probability.

    Every instance (or only ``--answer``) is evolved in one ensemble, and
    each answer's outcome is read off the final one. Exits with status 1 if
    any run is not exact (probability off 1).
    """
    if n < 1:
        raise click.UsageError(f"--n must be positive, got {n}")
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
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def layout(r, out):
    """Explicitly-known-bit layout of r computers over a list of size 2*r*r."""
    try:
        built = teamsearch.build_layout(r)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    emit(render_json(built.to_jsonable()) + "\n", out)


@main.command()
@click.option("--m", type=int, required=True, help="Explicitly known bits.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def expansion(m, out):
    """Known bits after one more query round, and the expansion factor."""
    if m < 1:
        raise click.UsageError(f"--m must be positive, got {m}")
    step = teamsearch.expansion(m)
    payload = {"m": m, "m_next": step.m_next, "F": step.factor}
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--size", type=int, required=True, help="Matrix size.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def norms(size, out):
    """Spectral norms of the inverse-distance matrices at a given size."""
    if size < 1:
        raise click.UsageError(f"--size must be positive, got {size}")
    payload = {
        "size": size,
        "hilbert_norm": lowerbound.spectral_norm(lowerbound.hilbert_matrix(size)),
        "hankel_norm": lowerbound.spectral_norm(lowerbound.hankel_matrix(size)),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--m", type=int, required=True, help="Value to decompose.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def decompose(m, out):
    """Digit expansion of m over the values (2*4**k + 1)/3, digits capped at 3."""
    if m < 1:
        raise click.UsageError(f"--m must be positive, got {m}")
    decomposition = teamsearch.decompose(m)
    payload = {
        "m": m,
        "digits": list(decomposition.digits),
        "top": decomposition.top,
        "reconstructed": decomposition.value(),
    }
    emit(render_json(payload) + "\n", out)


@main.command()
@click.option("--n", type=int, required=True, help="List size to cover.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def querycount(n, out):
    """Iterated-expansion query count until n bits are known."""
    if n < 2:
        raise click.UsageError(f"--n must be at least 2, got {n}")
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
