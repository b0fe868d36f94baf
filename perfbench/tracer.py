"""In-memory spans around the package's public calls, installed from outside.

The tracer replaces public functions at the module attributes their callers
look up (``analysis.build_matrix`` is looked up by ``cli``;
``analysis.check_detailed_balance`` by ``analysis.spectral_gap``), and the
``transitions`` method of every kernel class.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Coarse calls become spans (name, start, end, parent).  Per-row and per-draw
calls (``transitions``, ``sample_step``, ``log_weight``, ``lca``,
``validate_kclass``) are only counted, with their total and self time, so
a 5040-state build does not record 5040 spans.  Self time is a call's
duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

TV_DENSE_MAX = 256  # _tv_iter's operator rule at the seed commit: dense up to here


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self._stack: list[list] = []  # open calls: [span id or None, child time]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, original, name, per_call: bool, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span_id = None if per_call else len(tracer.spans)
            if span_id is not None:
                tracer.spans.append(None)  # reserve the id; filled on return
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer._close(label, span_id, start, end, frame[1])
            if after is not None:
                hook_start = tracer.clock()
                after(args, kwargs, result, end - start)
                tracer._charge_parent(tracer.clock() - hook_start)
            return result

        return traced

    def _close(self, label, span_id, start, end, child):
        duration = end - start
        self_time = duration - child
        entry = self.calls[label]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        if span_id is not None:
            parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
            self.spans[span_id] = {"name": label, "start": start, "end": end,
                                   "parent": parent, "self": self_time}
        self._charge_parent(duration)

    def _charge_parent(self, seconds):
        if self._stack:
            self._stack[-1][1] += seconds

    def patch(self, owner, attr, name, *, per_call=False, after=None):
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(original, name, per_call, after))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the package's boundaries -------------------------------------------

    def install(self, api):
        """Wrap the public calls of every layer of the package."""
        a, k, m, p, t, x = (api.analysis, api.kernels, api.model, api.permcore,
                            api.treerep, api.exclusion)
        self.patch(api.cli, "run_config", "cli.run_config")
        self.patch(m, "model_from_config", "model.model_from_config")
        for owner in (m, k, a):  # each module looks the name up in its own globals
            self.patch(owner, "validate_kclass", "model.validate_kclass", per_call=True)
        self.patch(p, "log_weight", "permcore.log_weight", per_call=True)
        self.patch(p, "word_log_weight", "permcore.word_log_weight", per_call=True)
        self.patch(t, "parse_tree", "treerep.parse_tree")
        self.patch(t, "induced_probabilities", "treerep.induced_probabilities")
        self.patch(t.LeagueTree, "lca", "treerep.lca", per_call=True)
        self.patch(k, "make_kernel", "kernels.make_kernel")
        self.patch(k, "make_bias", "kernels.make_bias")
        self.patch(k, "sample_step", "kernels.sample_step", per_call=True)
        for cls in _kernel_classes(k.ChainKernel):
            if "transitions" in vars(cls):
                self.patch(cls, "transitions",
                           lambda args: "kernels.transitions." + args[0].name,
                           per_call=True)
        self.patch(x, "hitting_time_to_top", "exclusion.hitting_time_to_top",
                   after=self._after_hitting)
        self.patch(x, "all_words", "exclusion.all_words")
        for name in ("space_for_kernel", "enumerate_states", "is_irreducible",
                     "stationary_formula", "check_detailed_balance", "spectral_gap",
                     "mixing_time_exact", "tv_curve", "verify_decomposition",
                     "blocks_by_class_positions", "congestion"):
            self.patch(a, name, "analysis." + name)
        self.patch(a, "build_matrix", "analysis.build_matrix", after=self._after_matrix)
        self.patch(a, "stationary_exact", "analysis.stationary_exact",
                   after=self._after_stationary)
        self.patch(a, "collect_canonical_paths", "analysis.collect_canonical_paths",
                   after=self._after_paths)
        original_tv = a._tv_iter
        a._tv_iter = functools.wraps(original_tv)(
            lambda matrix, pi: self._count_tv(original_tv, matrix, pi))
        self._patches.append((a, "_tv_iter", original_tv))

    def _after_matrix(self, args, kwargs, matrix, seconds):
        c = self.counters
        if matrix.nbytes > c["analysis.matrix_bytes"]:
            c["analysis.matrix_bytes"] = matrix.nbytes
            c["analysis.states"] = matrix.shape[0]
            c["analysis.nnz"] = np.count_nonzero(matrix)

    def _after_stationary(self, args, kwargs, pi, seconds):
        matrix = args[0]
        residual = float(np.abs(pi @ matrix - pi).max())
        key = "analysis.stationary_residual"
        self.counters[key] = max(self.counters[key], residual)

    def _after_paths(self, args, kwargs, records, seconds):
        self.counters["analysis.paths"] += len(records)

    def _after_hitting(self, args, kwargs, summary, seconds):
        bias = args[0]
        kind = "const" if getattr(bias, "constant_p", None) is not None else "callback"
        steps = sum(summary.trials)
        self.counters["exclusion.hit.steps"] += steps
        self.counters[f"exclusion.hit_{kind}.steps"] += steps
        self.counters[f"exclusion.hit_{kind}.s"] += seconds

    def _count_tv(self, original, matrix, pi):
        """Count TV steps and the bytes each one streams, computed from sizes.

        Per step: read P^t for the product and again for the TV row sums,
        write P^(t+1), read the operator (dense n*n doubles, or CSR data,
        indices and row pointers).  Temporaries are not counted, so the
        figure is a lower bound and is computed, not measured.
        """
        n = matrix.shape[0]
        if n > TV_DENSE_MAX:
            op_bytes = np.count_nonzero(matrix) * (8 + 4) + (n + 1) * 4
        else:
            op_bytes = n * n * 8
        step_bytes = 3 * n * n * 8 + op_bytes
        for item in original(matrix, pi):
            self.counters["analysis.tv.steps"] += 1
            self.counters["analysis.tv.bytes"] += step_bytes
            yield item


def _kernel_classes(base):
    out = []
    for cls in base.__subclasses__():
        out.append(cls)
        out.extend(_kernel_classes(cls))
    return out
