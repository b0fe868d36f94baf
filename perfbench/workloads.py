"""Seeded inputs and experiment lists of the three benchmark workloads.

Every input is generated here from the workload seed; the package only
ever sees the resulting configs (or, for the sampler walks, the kernels it
builds from them).  Generators are kept in this file rather than borrowed
from the package or its tests, so a later change to a package helper
cannot silently change the benchmark's inputs.

An experiment is run by ``Experiment.run`` and returns an ``Outcome``;
``checks.py`` decides whether the outcome is right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("tv-scan", "perm-exact", "monte-carlo")

# 6b's parameters; tv-scan does not depend on the seed.  6b's full scan at
# total 14 takes 31-53 s in one pass on 2 cores, too long to repeat within a
# run and too noisy to time once, so tv-scan runs 6b's scans at totals 6..12
# and only the first TV steps at total 14 (3432 states, 94 MB per power,
# about 3x a 32 MiB L3), which take the same operator route.
TV_TOTALS = (6, 8, 10, 12)
TV_BIAS = "constant:0.75"
TV_EPSILON = "0.25"
TV_TMAX = 768
TV_CURVE_TOTAL = 14
TV_CURVE_TMAX = 64

HIT_CONST_SIZES = (8, 12, 16)
HIT_CALLBACK_SIZE = 5
HIT_TRIALS = 1000
WALK_DRAWS = 500_000
WALK_ME_SIZE = (6, 6)

# Entry range of the general monotone set.  With the package's default
# range, [0.5, 0.99], the LU stationary solve loses masses below its
# resolution on about half the seeds at n = 7 and `gap` on `mnn` is refused
# with exit 3 (see test_perfbench.py).  Up to 0.75 the extreme stationary
# masses stay within a factor 3**21 (about 1e10) of each other, so every
# seed's experiments run.
GENERAL_RANGE = (0.5, 0.75)


def _prob(value: float) -> str:
    """Decimal string that parses back to exactly the same float."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# model generators (all n = 7 permutation models, plus one word model)


def _kclass_q(k: int, rng) -> dict:
    # rows sorted ascending keep the set weakly monotone
    q = {}
    for a in range(1, k + 1):
        row = np.sort(rng.uniform(0.55, 0.95, size=k - a))
        for off, b in enumerate(range(a + 1, k + 1)):
            q[f"({a},{b})"] = _prob(row[off])
    return q


def kclass_model(n: int, k: int, rng) -> dict:
    """Random contiguous k-class set, as the package's test fixtures draw it."""
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return {"type": "kclass", "n": n, "boundaries": cuts, "q": _kclass_q(k, rng)}


def word_model(sizes, rng) -> dict:
    """k-class set with fixed class sizes; its word chains run on 1..k labels."""
    cuts = list(np.cumsum(sizes)[:-1].tolist())
    return {"type": "kclass", "n": int(sum(sizes)), "boundaries": cuts,
            "q": _kclass_q(len(sizes), rng)}


def general_model(n: int, rng, low: float = 0.5, high: float = 0.99) -> dict:
    """Monotone pairwise set: p[i][j] <= p[i][j+1], p[i][j] >= p[i+1][j].

    Entries are drawn row by row, each uniform on the interval its
    monotonicity constraints allow (the package's ``random_monotone_set``
    rule; the defaults are its defaults too).
    """
    p = {}
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lo = max(low, p[(i, j - 1)]) if j - 1 > i else low
            hi = min(high, p[(i - 1, j)]) if i > 1 else high
            p[(i, j)] = float(rng.uniform(lo, hi))
            entries.append([i, j, _prob(p[(i, j)])])
    return {"type": "general", "n": n, "entries": entries}


def league_model(n: int, rng, max_degree: int = 4) -> dict:
    """Random ordered league tree over leaves 1..n with seeded q values."""
    counter = [0]

    def build(lo: int, hi: int):
        size = hi - lo + 1
        if size == 1:
            return lo
        degree = int(rng.integers(2, min(max_degree, size) + 1))
        cuts = sorted(rng.choice(np.arange(1, size), size=degree - 1, replace=False))
        edges = [0] + [int(c) for c in cuts] + [size]
        children = [build(lo + edges[i], lo + edges[i + 1] - 1) for i in range(degree)]
        counter[0] += 1
        q = {f"({a},{b})": _prob(rng.uniform(0.55, 0.95))
             for a in range(1, degree + 1) for b in range(a + 1, degree + 1)}
        return {"node": f"N{counter[0]}", "children": children, "q": q}

    return {"type": "league", "tree": build(1, n)}


def perm_models(seed: int) -> dict:
    """The four models perm-exact and monte-carlo run on, drawn from the seed."""
    return {
        "kclass": kclass_model(7, 3, np.random.default_rng([seed, 1])),
        "league": league_model(7, np.random.default_rng([seed, 2])),
        "general": general_model(7, np.random.default_rng([seed, 3]), *GENERAL_RANGE),
        "words": word_model((3, 3, 3), np.random.default_rng([seed, 4])),
    }


# ---------------------------------------------------------------------------
# experiments


def build_kernel(api, chain: str, model_cfg: dict | None, *, bias=None, n1=None,
                 n0=None):
    """A kernel through the package's public calls, as the CLI builds it."""
    if chain == "me":
        return api.kernels.make_kernel("me", bias=api.kernels.make_bias(bias),
                                       n1=n1, n0=n0)
    prob_set, partition, tree = api.model.model_from_config(model_cfg)
    return api.kernels.make_kernel(chain, prob_set=prob_set, partition=partition,
                                   tree=tree)


@dataclass
class Outcome:
    """What one experiment produced, as the checks need it."""

    exit_code: int = 0
    files: dict = field(default_factory=dict)  # name -> sha256 hex
    values: dict = field(default_factory=dict)  # typed results for the reference
    detail: list = field(default_factory=list)  # detail.csv rows after the header
    states: list = field(default_factory=list)  # sampler trajectory


@dataclass
class Experiment:
    """One CLI config, or one sampler walk through the library."""

    name: str
    cfg: dict | None = None  # CLI config; None for a sampler walk
    cli_seed: int = 0
    walk: dict | None = None  # {"chain", "model" or "bias", "n1", "n0", "draws", "seed"}

    def run(self, api, out_root: Path) -> Outcome:
        if self.cfg is not None:
            return self._run_cli(api, out_root / self.name)
        return self._run_walk(api)

    def _run_cli(self, api, out_dir: Path) -> Outcome:
        code = api.cli.run_config(self.cfg, out_dir=out_dir, seed=self.cli_seed,
                                  quiet=True)
        return Outcome(exit_code=code)

    def _run_walk(self, api) -> Outcome:
        w = self.walk
        kernel = build_kernel(api, w["chain"], w.get("model"), bias=w.get("bias"),
                              n1=w.get("n1"), n0=w.get("n0"))
        if w["chain"] == "me":
            state = (1,) * w["n1"] + (0,) * w["n0"]
        else:
            state = tuple(range(1, kernel.prob_set.n + 1))
        rng = np.random.default_rng(w["seed"])
        sample_step = api.kernels.sample_step
        states = [state]
        for _ in range(w["draws"]):
            state = sample_step(kernel, state, rng)
            states.append(state)
        return Outcome(states=states)

    def collect(self, outcome: Outcome, out_root: Path):
        """Read back what the run wrote; runs after the timed region."""
        if self.cfg is None:
            digest = hashlib.sha256()
            for state in outcome.states:
                digest.update(bytes(state))
            outcome.files["trajectory"] = digest.hexdigest()
            return
        out_dir = out_root / self.name
        for name in ("results.csv", "detail.csv"):
            path = out_dir / name
            if path.exists():
                outcome.files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        path = out_dir / "detail.csv"
        if outcome.exit_code == 0 and path.exists():
            with open(path, newline="") as fh:
                outcome.detail = list(csv.reader(fh))[1:]
        outcome.values = _typed_values(self.cfg["experiment"], outcome.detail)
        if self.cfg["experiment"] == "hitting" and outcome.detail:
            steps = ",".join(r[2] for r in outcome.detail if r[0] == "trial")
            outcome.files["trial_steps"] = hashlib.sha256(steps.encode()).hexdigest()


def _typed_values(experiment: str, detail: list) -> dict:
    """The numbers the reference pins, parsed from detail.csv."""
    if not detail:
        return {}
    row = detail[0]
    if experiment == "mix":
        return {"tau": int(row[1])}
    if experiment == "tv":
        return {"tv_last": float(detail[-1][1])}
    if experiment == "gap":
        return {"gap": float(row[1])}
    if experiment == "decompose":
        keys = ("gap_full", "gap_projection", "min_restriction_gap", "slack")
        return {k: float(v) for k, v in zip(keys, row)}
    if experiment == "paths":
        return {"paths": {r[0]: [int(r[1]), int(r[2])] for r in detail}}
    if experiment == "congestion":
        return {"A": float(row[0]), "max_congestion": int(row[1]),
                "max_path_len": int(row[2])}
    return {}


def experiments(workload: str, seed: int) -> list[Experiment]:
    """The workload's experiments, in run order, generated from the seed."""
    if workload == "tv-scan":
        out = []
        for total in TV_TOTALS:
            n1 = total // 2
            cfg = {"chain": "me", "bias": TV_BIAS, "n1": n1, "n0": total - n1,
                   "experiment": "mix", "epsilon": TV_EPSILON, "tmax": TV_TMAX}
            out.append(Experiment(f"mix-me-{total}", cfg=cfg))
        n1 = TV_CURVE_TOTAL // 2
        cfg = {"chain": "me", "bias": TV_BIAS, "n1": n1, "n0": TV_CURVE_TOTAL - n1,
               "experiment": "tv", "tmax": TV_CURVE_TMAX}
        out.append(Experiment(f"tv-me-{TV_CURVE_TOTAL}", cfg=cfg))
        return out
    models = perm_models(seed)
    if workload == "perm-exact":
        plan = [
            ("stationary", "mtk", "kclass"),
            ("balance", "mtk", "kclass"),
            ("gap", "mtk", "kclass"),
            ("gap", "mnn", "general"),
            ("stationary", "mtree", "league"),
            ("paths", "mtk", "kclass"),
            ("congestion", "mtk", "kclass"),
            ("decompose", "mk1", "words"),
            ("stationary", "mpp", "words"),
        ]
        return [Experiment(f"{exp}-{chain}",
                           cfg={"model": models[m], "chain": chain, "experiment": exp},
                           cli_seed=seed)
                for exp, chain, m in plan]
    if workload == "monte-carlo":
        out = []
        for m in HIT_CONST_SIZES:
            cfg = {"chain": "me", "experiment": "hitting", "bias": TV_BIAS,
                   "n1": m, "n0": m, "trials": HIT_TRIALS}
            out.append(Experiment(f"hitting-const-{m}", cfg=cfg, cli_seed=seed))
        m = HIT_CALLBACK_SIZE
        cfg = {"chain": "me", "experiment": "hitting", "bias": "word-hash",
               "n1": m, "n0": m, "trials": HIT_TRIALS}
        out.append(Experiment(f"hitting-callback-{m}", cfg=cfg, cli_seed=seed))
        for idx, (chain, m) in enumerate((("mnn", "general"), ("mtk", "kclass"),
                                          ("mtree", "league"))):
            out.append(Experiment(f"walk-{chain}", walk={
                "chain": chain, "model": models[m], "draws": WALK_DRAWS,
                "seed": [seed, 10 + idx]}))
        n1, n0 = WALK_ME_SIZE
        out.append(Experiment("walk-me", walk={
            "chain": "me", "bias": TV_BIAS, "n1": n1, "n0": n0,
            "draws": WALK_DRAWS, "seed": [seed, 13]}))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def prepare(api, exps: list[Experiment]):
    """Parse every generated model through the package; check the k-class ones.

    The k-class sets must be weakly monotone, as the package's test fixtures
    require of the same generator; anything else is a generator bug.
    """
    seen = set()
    for exp in exps:
        model_cfg = (exp.cfg or exp.walk).get("model")
        if model_cfg is None or json.dumps(model_cfg, sort_keys=True) in seen:
            continue
        seen.add(json.dumps(model_cfg, sort_keys=True))
        prob_set, _, _ = api.model.model_from_config(model_cfg)
        if (model_cfg["type"] == "kclass"
                and not api.model.check_weak_monotonicity(prob_set).weakly_monotone):
            raise ValueError(f"generated k-class set is not weakly monotone: {model_cfg}")


def state_count(api, exp: Experiment) -> int | None:
    """States of the experiment's space, from its inputs (None for walks)."""
    cfg = exp.cfg
    if cfg is None or cfg["experiment"] == "hitting":
        return None
    if cfg["chain"] == "me":
        return math.comb(cfg["n1"] + cfg["n0"], cfg["n1"])
    prob_set, partition, _ = api.model.model_from_config(cfg["model"])
    count = math.factorial(prob_set.n)
    if cfg["chain"] in ("mk1", "mpp"):  # words over the class labels
        for size in partition.sizes:
            count //= math.factorial(size)
    return count


def config_digest(exps: list[Experiment]) -> str:
    """Digest of every generated input, to tie a result to its inputs."""
    blob = json.dumps([[e.name, e.cfg, e.cli_seed, e.walk] for e in exps],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
