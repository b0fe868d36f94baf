"""Batch experiment runner.

Reads a JSON config, dispatches one experiment, and writes three
artifacts into the output directory: ``results.csv`` (one unified row per
result), ``detail.csv`` (experiment-specific rows), and
``config_echo.json`` (the config as parsed, plus the resolved seed,
budget and output directory, plus a timestamp).  The timestamp is the
only non-deterministic output: the same config and seed always produce
byte-identical CSVs.

Handlers only compute: they parse their fields, call ``analysis`` and
hand back raw values, with None for an empty cell.  ``_Run`` fills in the
results row's experiment and parameter hash, the writer formats every
cell, and ``run_config``, which first checks the config's fields and
experiment (``_check_config``), turns a refusal into its exit code.

Exit codes: 0 success, 1 validation error (a malformed config, a negative
seed, an output directory that cannot be written), 2 budget exceeded,
3 property violation detected.  A property violation, or a scaling sweep
cut short by the budget, is reported after the outputs are written.
Diagnostics go to standard error, one ``<label>: <message>`` line.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, exclusion, kernels, model, permcore
from .errors import BudgetExceededError, PropertyViolationError, ValidationError

RESULT_COLUMNS = ["experiment", "n", "parameter_hash", "gap", "tau", "A",
                  "max_path_len", "max_congestion", "slack"]

ALLOWED_KEYS = {"model", "chain", "experiment", "epsilon", "tmax", "sizes",
                "metric", "family", "bias", "n1", "n0", "trials",
                "fix_classes", "count", "n", "seed", "budget", "out"}

BALANCE_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _parameter_hash(cfg: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _state_str(state, kind: str) -> str:
    if kind == "permutations":
        return permcore.format_permutation(state)
    return permcore.format_word(state)


class _Run:
    """One experiment invocation: config, resolved knobs, collected output."""

    def __init__(self, cfg: dict, out_dir: Path, seed: int, budget: int):
        self.cfg = cfg
        self.out_dir = out_dir
        self.seed = seed
        self.budget = budget
        self.results: list[list] = []
        self.detail_header: list[str] = []
        self.detail: list[list] = []
        self.summary: list[str] = []
        # raised once the outputs are written: a property violation, or a
        # budget that cut a scaling sweep short
        self.deferred: PropertyViolationError | BudgetExceededError | None = None
        self.hash = _parameter_hash(dict(cfg, seed=seed, budget=budget))

    def result(self, n, **columns):
        """Append a results row: the experiment, n, the parameter hash and
        the named columns; the columns not named stay empty."""
        row = dict(experiment=self.cfg["experiment"], n=n, parameter_hash=self.hash,
                   **columns)
        self.results.append([row.get(c) for c in RESULT_COLUMNS])

    def build_chain(self, chain=None):
        chain = chain if chain is not None else self.cfg.get("chain")
        if chain is None:
            raise ValidationError("config needs a \"chain\" field")
        if chain == "me":
            return kernels.make_kernel("me", bias=kernels.make_bias(self.cfg.get("bias")),
                                       n1=self.cfg.get("n1"), n0=self.cfg.get("n0"))
        if "model" not in self.cfg:
            raise ValidationError(f"chain {chain!r} needs a \"model\" section")
        prob_set, partition, tree = model.model_from_config(self.cfg["model"])
        return kernels.make_kernel(chain, prob_set=prob_set, partition=partition,
                                   tree=tree)

    def build(self, kernel):
        """(space within the budget, the kernel's CSR matrix over it)."""
        space = analysis.space_for_kernel(kernel, budget=self.budget)
        return space, analysis.build_csr(kernel, space)

    def solve(self, kernel):
        """The exact pipeline: (space within the budget, CSR matrix, exact pi)."""
        space, matrix = self.build(kernel)
        return space, matrix, analysis.stationary_exact(matrix)


def load_config(path):
    """The JSON value of a config file, checked by ``run_config``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return cfg


def _check_config(cfg):
    """Refuse a config that is not a dict of known fields naming a known
    experiment."""
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown, key=str)}")
    if not isinstance(cfg.get("experiment"), str) or cfg["experiment"] not in HANDLERS:
        raise ValidationError("config needs \"experiment\", one of "
                              + ", ".join(HANDLERS))


# ---------------------------------------------------------------------------
# experiment handlers


def _exp_stationary(run: _Run):
    kernel = run.build_chain()
    if kernel.space_kind == "binary":
        raise ValidationError("no closed-form stationary weights for the exclusion chain")
    space, _, exact = run.solve(kernel)
    formula = analysis.stationary_formula(space, kernel.prob_set,
                                          getattr(kernel, "partition", None))
    diff = float(np.abs(exact - formula).max())
    run.detail_header = ["state", "pi_exact", "pi_formula"]
    run.detail += [[_state_str(state, space.kind), pi_x, pi_f]
                   for state, pi_x, pi_f in zip(space.states, exact, formula)]
    run.result(len(space.states[0]))
    run.summary += [f"states: {len(space)}", f"max |exact - formula|: {diff:.3e}"]
    if diff > STATIONARY_TOL:
        run.deferred = PropertyViolationError(
            f"stationary distributions disagree by {diff} > {STATIONARY_TOL}")


def _exp_balance(run: _Run):
    space, matrix, pi = run.solve(run.build_chain())
    report = analysis.check_detailed_balance(matrix, pi)
    run.detail_header = ["max_violation", "state_x", "state_y"]
    run.detail.append([report.max_violation,
                       _state_str(space.states[report.row], space.kind),
                       _state_str(space.states[report.col], space.kind)])
    run.result(len(space.states[0]))
    run.summary.append(f"max detailed-balance violation: {report.max_violation:.3e}")
    if report.max_violation > BALANCE_TOL:
        run.deferred = PropertyViolationError(
            f"detailed balance violated by {report.max_violation} > {BALANCE_TOL}")


def _exp_gap(run: _Run):
    space, matrix = run.build(run.build_chain())
    gap = analysis.spectral_gap(matrix)
    run.detail_header = ["states", "gap", "relaxation_time"]
    run.detail.append([len(space), gap, 1.0 / gap])
    run.result(len(space.states[0]), gap=gap)
    run.summary.append(f"spectral gap: {gap:.6g}")


def _parse_tmax(run: _Run) -> int | None:
    """The config's "tmax" (None when absent): a positive integer within
    the TV horizon, checked before the solve, which can take seconds."""
    raw = run.cfg.get("tmax")
    if raw is None:
        return None
    return analysis.check_horizon(model.parse_int(raw, "tmax", low=1))


def _exp_tv(run: _Run):
    kernel = run.build_chain()
    tmax = _parse_tmax(run)
    if tmax is None:
        raise ValidationError("tv needs a positive integer \"tmax\"")
    space, matrix, pi = run.solve(kernel)
    # the scan gets a dense matrix: perfbench's tracer counts the scanned
    # operator with np.count_nonzero, which refuses sparse input
    curve = analysis.tv_curve(matrix.toarray(), pi, tmax)
    run.detail_header = ["t", "tv_distance"]
    run.detail += [[t, value] for t, value in enumerate(curve)]
    run.result(len(space.states[0]))
    run.summary.append(f"tv({tmax}) = {curve[-1]:.6g}")


def _exp_mix(run: _Run):
    kernel = run.build_chain()
    eps = model.parse_probability(run.cfg.get("epsilon"), "epsilon")
    tmax = _parse_tmax(run)
    space, matrix, pi = run.solve(kernel)
    # dense for the scan, as in _exp_tv
    tau = analysis.mixing_time_exact(matrix.toarray(), pi, eps, tmax)
    run.detail_header = ["epsilon", "tau"]
    run.detail.append([eps, tau])
    run.result(len(space.states[0]), tau=tau)
    run.summary.append(f"mixing time tau({eps:g}) = {tau}")


def _exp_decompose(run: _Run):
    chain = run.cfg.get("chain", "mk1")
    if chain not in ("mk1", "mpp"):
        raise ValidationError("decompose works on the word chains mk1 or mpp")
    kernel = run.build_chain(chain)
    fix = run.cfg.get("fix_classes", [1])
    if not isinstance(fix, list) or not fix:
        raise ValidationError("fix_classes must be a nonempty list of class labels")
    fix = [model.parse_int(c, "a fix_classes label", low=1, high=kernel.partition.k)
           for c in fix]
    space, matrix = run.build(kernel)
    # closed-form weights: strongly biased word chains have stationary
    # masses below the generic solver's resolution
    pi = analysis.stationary_formula(space, kernel.prob_set, kernel.partition)
    labels = analysis.blocks_by_class_positions(space, fix)
    report = analysis.verify_decomposition(matrix, pi, labels)
    run.detail_header = ["gap_full", "gap_projection", "min_restriction_gap",
                         "slack", "blocks"]
    run.detail.append([report.gap_full, report.gap_projection, report.min_restriction_gap,
                       report.slack, len(report.restriction_gaps)])
    run.result(len(space.states[0]), gap=report.gap_full, slack=report.slack)
    run.summary.append(
        f"gap {report.gap_full:.6g} >= 1/2 * {report.gap_projection:.6g} * "
        f"{report.min_restriction_gap:.6g} (slack {report.slack:.6g})"
    )
    if not report.holds:
        run.deferred = PropertyViolationError(
            f"decomposition inequality violated, slack {report.slack}")


def _mtk_kernel(run: _Run):
    kernel = run.build_chain()
    if run.cfg.get("chain") != "mtk":
        raise ValidationError("paths and congestion experiments use chain \"mtk\"")
    if kernel.prob_set.n < 2:
        raise ValidationError("paths and congestion need n >= 2: one element has no edges")
    return kernel


def _exp_paths(run: _Run):
    kernel = _mtk_kernel(run)
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    family = analysis.collect_canonical_paths(kernel, space)
    logw = permcore.log_weights(space.states, kernel.prob_set)
    inner = np.minimum.reduceat(logw[family.states], family.indptr[:-1])
    floor_margin = (inner - np.minimum(logw[family.x], logw[family.y])).min()
    n = len(space.states[0])
    max_len = int(family.length.max())
    run.detail_header = ["direction", "paths", "max_len"]
    for direction in np.unique(family.direction):
        lengths = family.length[family.direction == direction]
        run.detail.append([direction, len(lengths), lengths.max()])
    run.result(n, max_path_len=max_len)
    run.summary += [
        f"paths: {len(family)}",
        f"max path length: {max_len} (bound 4n = {4 * n})",
        f"min (inner - endpoint) log-weight margin: {floor_margin:.3e}",
    ]
    if max_len > 4 * n:
        run.deferred = PropertyViolationError(
            f"a path of length {max_len} exceeds 4n = {4 * n}")
    elif floor_margin < -1e-9:
        run.deferred = PropertyViolationError(
            f"a path dips {floor_margin} below its endpoint weight")


def _exp_congestion(run: _Run):
    kernel = _mtk_kernel(run)
    # the nearest-neighbour chain runs over the same permutations as mtk
    space, nn_matrix, pi = run.solve(kernels.AdjacentTranspositionChain(kernel.prob_set))
    family = analysis.collect_canonical_paths(kernel, space)
    report = analysis.congestion(nn_matrix, family, pi, space)
    n = len(space.states[0])
    p = kernel.prob_set.p
    p_min = float(np.nanmin(np.where(np.tril(np.ones_like(p), -1) > 0, p, np.nan)))
    bounds = {
        "8n^4/p_min": 8 * n**4 / p_min,
        "72n^4*p_min": 72 * n**4 * p_min,
        "72n^4/p_min": 72 * n**4 / p_min,
    }
    run.detail_header = ["A", "max_congestion", "max_path_len", "edge_z", "edge_w"]
    zstate, wstate = report.argmax_edge
    run.detail.append([report.constant, report.max_path_count, report.max_path_len,
                       _state_str(zstate, space.kind), _state_str(wstate, space.kind)])
    run.result(n, A=report.constant, max_path_len=report.max_path_len,
               max_congestion=report.max_path_count)
    run.summary.append(f"A = {report.constant:.6g}, max |Gamma(z,w)| = "
                       f"{report.max_path_count} (12n^3 = {12 * n**3})")
    for label, value in bounds.items():
        run.summary.append(f"A <= {label} = {value:.6g}: {report.constant <= value}")
    if report.max_path_count > 12 * n**3:
        run.deferred = PropertyViolationError(
            f"congestion {report.max_path_count} exceeds 12n^3 = {12 * n**3}")


def _exp_hitting(run: _Run):
    kernel = run.build_chain("me")
    summary = exclusion.hitting_time_to_top(kernel.bias, kernel.n1, kernel.n0,
                                            run.cfg.get("trials"), run.seed)
    run.detail_header = ["row_type", "trial", "steps", "mean", "max", "area", "ratio"]
    run.detail += [["trial", idx, steps, None, None, None, None]
                   for idx, steps in enumerate(summary.trials)]
    run.detail.append(["summary", None, None, summary.mean, summary.max, summary.area,
                       summary.normalized_mean])
    run.result(kernel.n1 + kernel.n0)
    run.summary += [
        f"trials: {len(summary.trials)}",
        f"mean hitting time: {summary.mean:.6g}",
        f"mean / (n1*n0): {summary.normalized_mean:.6g}",
    ]


def _scaling_family(run: _Run):
    chain = run.cfg.get("chain")
    family = run.cfg.get("family")
    if chain not in ("mnn", "me"):
        raise ValidationError("scaling supports the chains \"mnn\" and \"me\"")
    if chain == "mnn":
        if family == "uniform":
            return lambda n: kernels.AdjacentTranspositionChain(model.uniform_set(n))
        if isinstance(family, str) and family.startswith("constant:"):
            p = model.parse_probability(family.split(":", 1)[1], "family probability")
            return lambda n: kernels.AdjacentTranspositionChain(
                model.constant_bias_set(n, p))
        raise ValidationError(
            "mnn scaling needs family \"uniform\" or \"constant:<p>\"")
    if not (isinstance(family, str) and family.startswith("constant:")):
        raise ValidationError("me scaling needs family \"constant:<p>\"")
    p = model.parse_probability(family.split(":", 1)[1], "family probability")

    def build(total):
        n1 = total // 2
        return kernels.GeneralizedExclusionChain(kernels.constant_bias(p), n1,
                                                 total - n1)

    return build


def _exp_scaling(run: _Run):
    sizes = run.cfg.get("sizes")
    if not isinstance(sizes, list):
        sizes = []
    sizes = [model.parse_int(s, "a size") for s in sizes]
    if len(sizes) < 3 or len(set(sizes)) < len(sizes):
        raise ValidationError(f"scaling needs a \"sizes\" list of at least 3 sizes, "
                              f"none repeated, got {sizes}")
    metric = run.cfg.get("metric", "relaxation")
    if metric not in ("relaxation", "mix"):
        raise ValidationError("metric must be \"relaxation\" or \"mix\"")
    eps = (model.parse_probability(run.cfg.get("epsilon", "0.25"), "epsilon")
           if metric == "mix" else None)
    family = _scaling_family(run)

    sizes = sorted(sizes)
    values = []
    try:
        for size, value in zip(sizes, analysis.scaling_values(family, sizes, eps,
                                                              budget=run.budget)):
            if eps is None:
                run.result(size, gap=1.0 / value)
            else:
                run.result(size, tau=value)
            values.append((size, value))
    except BudgetExceededError as exc:
        run.deferred = exc
    run.detail_header = ["row_type", "size", "value", "slope", "intercept",
                         "max_residual"]
    run.detail += [["size", size, value, None, None, None] for size, value in values]
    if run.deferred is None:
        fit = analysis.fit_loglog([s for s, _ in values], [v for _, v in values])
        run.detail.append(["fit", None, None, fit.slope, fit.intercept, fit.max_residual])
        run.summary.append(f"log-log slope: {fit.slope:.4f} over sizes {sizes}")
    else:
        run.summary.append(f"sweep stopped early: {run.deferred}")


def _exp_fill_check(run: _Run):
    n = model.parse_int(run.cfg.get("n", 3), "n")
    violations, gaps, uniform_gap = analysis.fill_spot_check(n, run.cfg.get("count", 200),
                                                             run.seed, budget=run.budget)
    run.detail_header = ["instance", "gap", "uniform_gap", "ok"]
    run.detail += [[idx, gap, uniform_gap, idx not in violations]
                   for idx, gap in enumerate(gaps)]
    run.result(n, gap=uniform_gap)
    run.summary.append(f"violations: {len(violations)}")
    if violations:
        run.deferred = PropertyViolationError(
            f"{len(violations)} instances have a smaller gap than the uniform chain")


HANDLERS = {
    "stationary": _exp_stationary,
    "balance": _exp_balance,
    "gap": _exp_gap,
    "tv": _exp_tv,
    "mix": _exp_mix,
    "decompose": _exp_decompose,
    "paths": _exp_paths,
    "congestion": _exp_congestion,
    "hitting": _exp_hitting,
    "scaling": _exp_scaling,
    "fill-check": _exp_fill_check,
}


# ---------------------------------------------------------------------------
# output writing and entry points


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _write_outputs(run: _Run):
    echo = {
        "config": run.cfg,
        "resolved": {"seed": run.seed, "budget": run.budget,
                     "out": str(run.out_dir)},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    try:
        run.out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(run.out_dir / "results.csv", RESULT_COLUMNS, run.results)
        _write_csv(run.out_dir / "detail.csv", run.detail_header or ["empty"], run.detail)
        with open(run.out_dir / "config_echo.json", "w") as fh:
            json.dump(echo, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(
            f"cannot write the outputs to {run.out_dir}: {exc}") from exc


def _refused(exc) -> int:
    """Report a refusal on standard error; its class holds the exit code."""
    print(f"{exc.label}: {exc}", file=sys.stderr)
    return exc.exit_code


def run_config(cfg: dict, out_dir=None, seed=None, budget=None, quiet=False) -> int:
    """Execute an already-parsed experiment config; returns the exit code."""
    try:
        _check_config(cfg)
        resolved_seed = model.parse_int(seed if seed is not None else cfg.get("seed", 0),
                                        "seed", low=0)
        resolved_budget = model.parse_int(budget if budget is not None else
                                          cfg.get("budget", analysis.DEFAULT_BUDGET),
                                          "budget")
        resolved_out = out_dir if out_dir is not None else cfg.get("out", "results")
        if not isinstance(resolved_out, (str, os.PathLike)):
            raise ValidationError(f"\"out\" must be a path string, got {resolved_out!r}")
        job = _Run(cfg, Path(resolved_out), resolved_seed, resolved_budget)
        HANDLERS[cfg["experiment"]](job)
        _write_outputs(job)
        if not quiet:
            print(f"experiment: {cfg['experiment']}")
            for line in job.summary:
                print(line)
            print(f"wrote {job.out_dir / 'results.csv'}")
        if job.deferred is not None:
            raise job.deferred
    except (ValidationError, BudgetExceededError, PropertyViolationError) as exc:
        return _refused(exc)
    return 0


def run(config_path, out_dir=None, seed=None, budget=None, quiet=False) -> int:
    """Execute the experiment described by a config file; returns the exit code."""
    try:
        cfg = load_config(config_path)
    except ValidationError as exc:
        return _refused(exc)
    return run_config(cfg, out_dir=out_dir, seed=seed, budget=budget, quiet=quiet)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biasedperm",
        description="Run one experiment over the biased-permutation chains.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides the config)")
    parser.add_argument("--budget", type=int, default=None,
                        help="state-space budget (overrides the config)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary on stdout")
    args = parser.parse_args(argv)
    code = run(args.config, out_dir=args.out, seed=args.seed, budget=args.budget,
               quiet=args.quiet)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
