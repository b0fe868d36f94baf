"""Batch experiment runner.

Reads a JSON config, dispatches one experiment, and writes three
artifacts into the output directory: ``results.csv`` (one unified row per
result), ``detail.csv`` (experiment-specific rows), and
``config_echo.json`` (the config as parsed, plus the resolved seed,
budget and output directory, plus a timestamp).  The timestamp is the
only non-deterministic output: the same config and seed always produce
byte-identical CSVs.

Exit codes: 0 success, 1 validation error, 2 budget exceeded,
3 property violation detected.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import analysis, exclusion, kernels, model, permcore
from .errors import BudgetExceededError, PropertyViolationError, ValidationError

RESULT_COLUMNS = ["experiment", "n", "parameter_hash", "gap", "tau", "A",
                  "max_path_len", "max_congestion", "slack"]

ALLOWED_KEYS = {"model", "chain", "experiment", "epsilon", "tmax", "sizes",
                "metric", "family", "bias", "n1", "n0", "trials",
                "fix_classes", "count", "n", "seed", "budget", "out"}

EXPERIMENTS = ("stationary", "balance", "gap", "tv", "mix", "decompose",
               "paths", "congestion", "hitting", "scaling", "fill-check")

BALANCE_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _result_row(experiment, *, n="", parameter_hash="", gap="", tau="", A="",
                max_path_len="", max_congestion="", slack=""):
    return [_fmt(v) for v in (experiment, n, parameter_hash, gap, tau, A,
                              max_path_len, max_congestion, slack)]


def _parameter_hash(cfg: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _parse_epsilon(cfg, default=None) -> float:
    raw = cfg.get("epsilon", default)
    if raw is None:
        raise ValidationError("this experiment needs an \"epsilon\" decimal string")
    if not isinstance(raw, str):
        raise ValidationError("epsilon must be a decimal string")
    try:
        eps = float(Decimal(raw))
    except (InvalidOperation, ValueError) as exc:
        raise ValidationError(f"bad epsilon {raw!r}") from exc
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon {eps} must lie in (0, 1)")
    return eps


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
        self.results: list[list[str]] = []
        self.detail_header: list[str] = []
        self.detail: list[list[str]] = []
        self.summary: list[str] = []
        self.violation: str | None = None
        self.partial_budget_error = None
        self.hash = _parameter_hash(dict(cfg, seed=seed, budget=budget))

    def build_chain(self, chain=None):
        chain = chain if chain is not None else self.cfg.get("chain")
        if chain is None:
            raise ValidationError("config needs a \"chain\" field")
        if chain == "me":
            for key in ("bias", "n1", "n0"):
                if key not in self.cfg:
                    raise ValidationError(f"chain \"me\" needs \"{key}\"")
            bias = kernels.make_bias(self.cfg["bias"])
            kernel = kernels.make_kernel("me", bias=bias, n1=int(self.cfg["n1"]),
                                         n0=int(self.cfg["n0"]))
            return kernel, None, None
        if "model" not in self.cfg:
            raise ValidationError(f"chain {chain!r} needs a \"model\" section")
        prob_set, partition, tree = model.model_from_config(self.cfg["model"])
        kernel = kernels.make_kernel(chain, prob_set=prob_set, partition=partition,
                                     tree=tree)
        return kernel, prob_set, partition


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(cfg) - ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    if cfg.get("experiment") not in EXPERIMENTS:
        raise ValidationError(
            f"config needs \"experiment\", one of {', '.join(EXPERIMENTS)}"
        )
    return cfg


# ---------------------------------------------------------------------------
# experiment handlers


def _exp_stationary(run: _Run):
    kernel, prob_set, partition = run.build_chain()
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    if space.kind == "binary":
        raise ValidationError("no closed-form stationary weights for the exclusion chain")
    matrix = analysis.build_csr(kernel, space)
    exact = analysis.stationary_exact(matrix)
    formula = analysis.stationary_formula(space, kernel.prob_set,
                                          getattr(kernel, "partition", partition))
    diff = float(np.abs(exact - formula).max())
    run.detail_header = ["state", "pi_exact", "pi_formula"]
    for idx, state in enumerate(space.states):
        run.detail.append([_state_str(state, space.kind), _fmt(float(exact[idx])),
                           _fmt(float(formula[idx]))])
    run.results.append(_result_row("stationary", n=len(space.states[0]),
                                   parameter_hash=run.hash))
    run.summary += [f"states: {len(space)}", f"max |exact - formula|: {diff:.3e}"]
    if diff > STATIONARY_TOL:
        run.violation = f"stationary distributions disagree by {diff} > {STATIONARY_TOL}"


def _exp_balance(run: _Run):
    kernel, _, _ = run.build_chain()
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    matrix = analysis.build_csr(kernel, space)
    pi = analysis.stationary_exact(matrix)
    report = analysis.check_detailed_balance(matrix, pi)
    run.detail_header = ["max_violation", "state_x", "state_y"]
    run.detail.append([_fmt(report.max_violation),
                       _state_str(space.states[report.row], space.kind),
                       _state_str(space.states[report.col], space.kind)])
    run.results.append(_result_row("balance", n=len(space.states[0]),
                                   parameter_hash=run.hash))
    run.summary.append(f"max detailed-balance violation: {report.max_violation:.3e}")
    if report.max_violation > BALANCE_TOL:
        run.violation = (
            f"detailed balance violated by {report.max_violation} > {BALANCE_TOL}"
        )


def _exp_gap(run: _Run):
    kernel, _, _ = run.build_chain()
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    matrix = analysis.build_csr(kernel, space)
    pi = analysis.stationary_exact(matrix)
    gap = analysis.spectral_gap(matrix, pi)
    run.detail_header = ["states", "gap", "relaxation_time"]
    run.detail.append([str(len(space)), _fmt(gap), _fmt(1.0 / gap)])
    run.results.append(_result_row("gap", n=len(space.states[0]),
                                   parameter_hash=run.hash, gap=gap))
    run.summary.append(f"spectral gap: {gap:.6g}")


def _exp_tv(run: _Run):
    kernel, _, _ = run.build_chain()
    tmax = int(run.cfg.get("tmax", 0))
    if tmax < 1:
        raise ValidationError("tv needs a positive integer \"tmax\"")
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    matrix = analysis.build_csr(kernel, space)
    pi = analysis.stationary_exact(matrix)
    # the scan gets a dense matrix: perfbench's tracer counts the scanned
    # operator with np.count_nonzero, which refuses sparse input
    curve = analysis.tv_curve(matrix.toarray(), pi, tmax)
    run.detail_header = ["t", "tv_distance"]
    for t, value in enumerate(curve):
        run.detail.append([str(t), _fmt(float(value))])
    run.results.append(_result_row("tv", n=len(space.states[0]),
                                   parameter_hash=run.hash))
    run.summary.append(f"tv({tmax}) = {curve[-1]:.6g}")


def _exp_mix(run: _Run):
    kernel, _, _ = run.build_chain()
    eps = _parse_epsilon(run.cfg)
    tmax = run.cfg.get("tmax")
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    matrix = analysis.build_csr(kernel, space)
    pi = analysis.stationary_exact(matrix)
    # dense for the scan, as in _exp_tv
    tau = analysis.mixing_time_exact(matrix.toarray(), pi, eps,
                                     int(tmax) if tmax is not None else None)
    run.detail_header = ["epsilon", "tau"]
    run.detail.append([_fmt(eps), str(tau)])
    run.results.append(_result_row("mix", n=len(space.states[0]),
                                   parameter_hash=run.hash, tau=tau))
    run.summary.append(f"mixing time tau({eps:g}) = {tau}")


def _exp_decompose(run: _Run):
    chain = run.cfg.get("chain", "mk1")
    if chain not in ("mk1", "mpp"):
        raise ValidationError("decompose works on the word chains mk1 or mpp")
    kernel, _, _ = run.build_chain(chain)
    fix = run.cfg.get("fix_classes", [1])
    if not isinstance(fix, list) or not fix:
        raise ValidationError("fix_classes must be a nonempty list of class labels")
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    matrix = analysis.build_matrix(kernel, space)
    # closed-form weights: strongly biased word chains have stationary
    # masses below the generic solver's resolution
    pi = analysis.stationary_formula(space, kernel.prob_set, kernel.partition)
    blocks = analysis.blocks_by_class_positions(space, fix)
    report = analysis.verify_decomposition(matrix, pi, blocks)
    run.detail_header = ["gap_full", "gap_projection", "min_restriction_gap",
                         "slack", "blocks"]
    run.detail.append([_fmt(report.gap_full), _fmt(report.gap_projection),
                       _fmt(report.min_restriction_gap), _fmt(report.slack),
                       str(len(blocks))])
    run.results.append(_result_row("decompose", n=len(space.states[0]),
                                   parameter_hash=run.hash, gap=report.gap_full,
                                   slack=report.slack))
    run.summary.append(
        f"gap {report.gap_full:.6g} >= 1/2 * {report.gap_projection:.6g} * "
        f"{report.min_restriction_gap:.6g} (slack {report.slack:.6g})"
    )
    if not report.holds:
        run.violation = f"decomposition inequality violated, slack {report.slack}"


def _paths_setup(run: _Run):
    kernel, prob_set, partition = run.build_chain()
    if run.cfg.get("chain") != "mtk":
        raise ValidationError("paths and congestion experiments use chain \"mtk\"")
    space = analysis.space_for_kernel(kernel, budget=run.budget)
    records = analysis.collect_canonical_paths(space, kernel.prob_set, kernel.partition)
    return kernel, space, records


def _exp_paths(run: _Run):
    kernel, space, records = _paths_setup(run)
    logw = np.array([permcore.log_weight(s, kernel.prob_set) for s in space.states])
    stats = {}
    floor_margin = np.inf
    for rec in records:
        endpoints = min(logw[rec.x_index], logw[rec.y_index])
        inner = min(logw[space.index[s]] for s in rec.path.states)
        floor_margin = min(floor_margin, inner - endpoints)
        entry = stats.setdefault(rec.path.direction, [0, 0])
        entry[0] += 1
        entry[1] = max(entry[1], rec.path.length)
    n = len(space.states[0])
    max_len = max(entry[1] for entry in stats.values())
    run.detail_header = ["direction", "paths", "max_len"]
    for direction in sorted(stats):
        run.detail.append([direction, str(stats[direction][0]),
                           str(stats[direction][1])])
    run.results.append(_result_row("paths", n=n, parameter_hash=run.hash,
                                   max_path_len=max_len))
    run.summary += [
        f"paths: {len(records)}",
        f"max path length: {max_len} (bound 4n = {4 * n})",
        f"min (inner - endpoint) log-weight margin: {floor_margin:.3e}",
    ]
    if max_len > 4 * n:
        run.violation = f"a path of length {max_len} exceeds 4n = {4 * n}"
    elif floor_margin < -1e-9:
        run.violation = f"a path dips {floor_margin} below its endpoint weight"


def _exp_congestion(run: _Run):
    kernel, space, records = _paths_setup(run)
    nn_matrix = analysis.build_csr(
        kernels.AdjacentTranspositionChain(kernel.prob_set), space)
    pi = analysis.stationary_exact(nn_matrix)
    report = analysis.congestion(nn_matrix, records, pi, space)
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
    run.detail.append([_fmt(report.constant), str(report.max_path_count),
                       str(report.max_path_len), _state_str(zstate, space.kind),
                       _state_str(wstate, space.kind)])
    run.results.append(_result_row("congestion", n=n, parameter_hash=run.hash,
                                   A=report.constant,
                                   max_path_len=report.max_path_len,
                                   max_congestion=report.max_path_count))
    run.summary.append(f"A = {report.constant:.6g}, max |Gamma(z,w)| = "
                       f"{report.max_path_count} (12n^3 = {12 * n**3})")
    for label, value in bounds.items():
        run.summary.append(f"A <= {label} = {value:.6g}: {report.constant <= value}")
    if report.max_path_count > 12 * n**3:
        run.violation = (
            f"congestion {report.max_path_count} exceeds 12n^3 = {12 * n**3}"
        )


def _exp_hitting(run: _Run):
    for key in ("bias", "n1", "n0", "trials"):
        if key not in run.cfg:
            raise ValidationError(f"hitting needs \"{key}\"")
    bias = kernels.make_bias(run.cfg["bias"])
    n1, n0 = int(run.cfg["n1"]), int(run.cfg["n0"])
    trials = int(run.cfg["trials"])
    summary = exclusion.hitting_time_to_top(bias, n1, n0, trials, run.seed)
    run.detail_header = ["row_type", "trial", "steps", "mean", "max", "area", "ratio"]
    for idx, steps in enumerate(summary.trials):
        run.detail.append(["trial", str(idx), str(steps), "", "", "", ""])
    run.detail.append(["summary", "", "", _fmt(summary.mean), str(summary.max),
                       str(summary.area), _fmt(summary.normalized_mean)])
    run.results.append(_result_row("hitting", n=n1 + n0, parameter_hash=run.hash))
    run.summary += [
        f"trials: {trials}",
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
            p = model.parse_probability(family.split(":", 1)[1])
            return lambda n: kernels.AdjacentTranspositionChain(
                model.constant_bias_set(n, p))
        raise ValidationError(
            "mnn scaling needs family \"uniform\" or \"constant:<p>\"")
    if not (isinstance(family, str) and family.startswith("constant:")):
        raise ValidationError("me scaling needs family \"constant:<p>\"")
    p = model.parse_probability(family.split(":", 1)[1])

    def build(total):
        n1 = total // 2
        return kernels.GeneralizedExclusionChain(kernels.constant_bias(p), n1,
                                                 total - n1)

    return build


def _exp_scaling(run: _Run):
    sizes = run.cfg.get("sizes")
    if not isinstance(sizes, list) or len(sizes) < 3:
        raise ValidationError("scaling needs a \"sizes\" list with at least 3 sizes")
    sizes = [int(s) for s in sizes]
    metric = run.cfg.get("metric", "relaxation")
    if metric not in ("relaxation", "mix"):
        raise ValidationError("metric must be \"relaxation\" or \"mix\"")
    eps = _parse_epsilon(run.cfg, default="0.25") if metric == "mix" else None
    family = _scaling_family(run)

    values = []
    partial_error = None
    for size in sorted(sizes):
        try:
            kernel = family(size)
            space = analysis.space_for_kernel(kernel, budget=run.budget)
            matrix = analysis.build_csr(kernel, space)
            pi = analysis.stationary_exact(matrix)
            if metric == "relaxation":
                value = 1.0 / analysis.spectral_gap(matrix, pi)
                run.results.append(_result_row("scaling", n=size,
                                               parameter_hash=run.hash,
                                               gap=1.0 / value))
            else:
                value = float(analysis.mixing_time_exact(matrix, pi, eps))
                run.results.append(_result_row("scaling", n=size,
                                               parameter_hash=run.hash, tau=value))
            values.append((size, value))
        except BudgetExceededError as exc:
            partial_error = exc
            break
    run.detail_header = ["row_type", "size", "value", "slope", "intercept",
                         "max_residual"]
    for size, value in values:
        run.detail.append(["size", str(size), _fmt(value), "", "", ""])
    if partial_error is None:
        fit = analysis.fit_loglog([s for s, _ in values], [v for _, v in values])
        run.detail.append(["fit", "", "", _fmt(fit.slope), _fmt(fit.intercept),
                           _fmt(fit.max_residual)])
        run.summary.append(f"log-log slope: {fit.slope:.4f} over sizes {sorted(sizes)}")
    else:
        run.summary.append(f"sweep stopped early: {partial_error}")
        run.partial_budget_error = partial_error


def _exp_fill_check(run: _Run):
    n = int(run.cfg.get("n", 3))
    count = int(run.cfg.get("count", 200))
    violations, gaps, uniform_gap = analysis.fill_spot_check(n, count, run.seed)
    run.detail_header = ["instance", "gap", "uniform_gap", "ok"]
    for idx, gap in enumerate(gaps):
        run.detail.append([str(idx), _fmt(gap), _fmt(uniform_gap),
                           str(idx not in violations)])
    run.results.append(_result_row("fill-check", n=n, parameter_hash=run.hash,
                                   gap=uniform_gap))
    run.summary.append(f"violations: {len(violations)}")
    if violations:
        run.violation = (
            f"{len(violations)} instances have a smaller gap than the uniform chain"
        )


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


def _write_outputs(run: _Run):
    run.out_dir.mkdir(parents=True, exist_ok=True)
    with open(run.out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(run.results)
    with open(run.out_dir / "detail.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(run.detail_header or ["empty"])
        writer.writerows(run.detail)
    echo = {
        "config": run.cfg,
        "resolved": {"seed": run.seed, "budget": run.budget,
                     "out": str(run.out_dir)},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(run.out_dir / "config_echo.json", "w") as fh:
        json.dump(echo, fh, indent=2)
        fh.write("\n")


def run_config(cfg: dict, out_dir=None, seed=None, budget=None, quiet=False) -> int:
    """Execute an already-parsed experiment config; returns the exit code."""
    try:
        resolved_seed = int(seed if seed is not None else cfg.get("seed", 0))
        resolved_budget = int(budget if budget is not None else
                              cfg.get("budget", analysis.DEFAULT_BUDGET))
        resolved_out = Path(out_dir if out_dir is not None else
                            cfg.get("out", "results"))
        job = _Run(cfg, resolved_out, resolved_seed, resolved_budget)
        HANDLERS[cfg["experiment"]](job)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except PropertyViolationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 3

    _write_outputs(job)
    if not quiet:
        print(f"experiment: {cfg['experiment']}")
        for line in job.summary:
            print(line)
        print(f"wrote {job.out_dir / 'results.csv'}")
    if job.partial_budget_error is not None:
        print(f"budget exceeded: {job.partial_budget_error}", file=sys.stderr)
        return 2
    if job.violation is not None:
        print(f"property violation: {job.violation}", file=sys.stderr)
        return 3
    return 0


def run(config_path, out_dir=None, seed=None, budget=None, quiet=False) -> int:
    """Execute the experiment described by a config file; returns the exit code."""
    try:
        cfg = load_config(config_path)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run_config(cfg, out_dir=out_dir, seed=seed, budget=budget, quiet=quiet)


def sweep(config_path, sizes=None, out_dir=None, seed=None, budget=None,
          quiet=False) -> int:
    """Run the scaling experiment, optionally overriding the size list."""
    try:
        cfg = load_config(config_path)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if sizes is not None:
        cfg = dict(cfg, sizes=list(sizes))
    if cfg.get("experiment") != "scaling":
        cfg = dict(cfg, experiment="scaling")
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
