"""Per-layer tracing from outside the library.

The tracer replaces module attributes of ``berezin_lab`` with wrappers, so
every call made through that binding opens a span (name, start, end,
parent, request) or bumps a counter.  A binding is wrapped where the
calling module looks it up: functions reached through a module object
(``integrals.so_integral_mc`` as the CLI calls it) are wrapped on that
module, and names a module imported with ``from ... import`` are wrapped
in the importing module.  A binding that no longer exists is listed as
absent and skipped, so a later refactor cannot crash the benchmark.

Spans live in memory for one pass.  ``layer_metrics`` turns them into
per-layer times and counts; the caller keeps the spans of the last pass
and writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, layer, span) -- span False means count calls only.
# Layers are named after the library's modules; "berezin.restriction" is
# the boundary-orbit part of berezin, kept apart from its kernel checks.
BINDINGS = [
    ("berezin_lab.cli", "render_report", "reporting", True),
    ("berezin_lab.cli", "render_table", "reporting", True),
    ("berezin_lab.cli", "random_ball_point", "ball", True),
    ("berezin_lab.cli", "random_pseudo_orthogonal", "ball", True),
    ("berezin_lab.compact", "haar_sample_batch", "compact", True),
    ("berezin_lab.integrals", "_haar_so_batch", "compact", True),
    ("berezin_lab.integrals", "_haar_u_batch", "compact", True),
    ("berezin_lab.integrals", "_haar_sp_batch", "compact", True),
    ("berezin_lab.berezin", "_haar_so_batch", "compact", True),
    ("berezin_lab.ball", "_haar_orthogonal_batch", "compact", True),
    ("berezin_lab.integrals", "so_integral_closed_form", "integrals.closed_form", True),
    ("berezin_lab.integrals", "u_integral_closed_form", "integrals.closed_form", True),
    ("berezin_lab.integrals", "sp_integral_closed_form", "integrals.closed_form", True),
    ("berezin_lab.berezin", "so_integral_closed_form", "integrals.closed_form", True),
    ("berezin_lab.integrals", "so_integral_quadrature", "integrals.quadrature", True),
    ("berezin_lab.integrals", "so_integral_mc", "integrals.mc", True),
    ("berezin_lab.integrals", "u_integral_mc", "integrals.mc", True),
    ("berezin_lab.integrals", "sp_integral_mc", "integrals.mc", True),
    ("berezin_lab.integrals", "block_rng", "integrals.block", False),
    ("berezin_lab.berezin", "restriction_threshold", "berezin.restriction", True),
    ("berezin_lab.berezin", "restriction_closed_form", "berezin.restriction", True),
    ("berezin_lab.berezin", "restriction_probe", "berezin.restriction", True),
    ("berezin_lab.berezin", "gram_spectrum", "berezin.kernel", True),
    ("berezin_lab.berezin", "wallach_admissible", "berezin.kernel", True),
    ("berezin_lab.berezin", "pd_witness_search", "berezin.kernel", True),
    ("berezin_lab.berezin", "covariance_residual", "berezin.kernel", True),
    ("berezin_lab.berezin", "domination_residual", "berezin.kernel", True),
    ("berezin_lab.berezin", "berezin_kernel", "berezin.kernel", True),
    ("berezin_lab.berezin", "_gram_matrix", "berezin.kernel", True),
    ("berezin_lab.berezin", "random_ball_point", "ball", True),
    ("berezin_lab.berezin", "cocycle", "ball", True),
    ("berezin_lab.berezin", "moebius_act", "ball", True),
    ("berezin_lab.plancherel", "surviving_blocks", "plancherel.enumerate", True),
    ("berezin_lab.plancherel", "coeff_C", "plancherel.coeff", True),
    ("berezin_lab.plancherel", "coeff_V_o", "plancherel.coeff", True),
    ("berezin_lab.plancherel", "coeff_Q_o", "plancherel.coeff", True),
    ("berezin_lab.plancherel", "coeff_CVQ_u", "plancherel.coeff", True),
    ("berezin_lab.plancherel", "continuous_weight_o", "plancherel.weight", True),
    ("berezin_lab.plancherel", "rank1_plancherel_probe", "plancherel.rank1", True),
    ("berezin_lab.plancherel", "GammaValue", "gammaval", False),
    ("berezin_lab.plancherel", "one", "gammaval", False),
    ("berezin_lab.plancherel", "from_real", "gammaval", False),
    ("berezin_lab.plancherel", "from_real_snapped", "gammaval", False),
    ("berezin_lab.plancherel", "gamma_value", "gammaval", False),
    ("berezin_lab.plancherel", "pochhammer_value", "gammaval", False),
    ("berezin_lab.hermitization", "catalog", "hermitization", True),
    ("berezin_lab.hermitization", "corrupted_pair", "hermitization", True),
    ("berezin_lab.hermitization", "dims_match", "hermitization", True),
]


def _result_counts(name: str, out) -> dict[str, float]:
    """Work counts read off a layer call's return value."""
    layer, _, attr = name.rpartition(".")
    if layer == "compact":
        return {"compact.matrices": len(out)}
    if layer in ("integrals.mc", "berezin.restriction") and attr.endswith(("_mc", "_probe")):
        return {"integrals.samples": out.n_samples, "integrals.resamples": out.n_resamples}
    if attr == "pd_witness_search":
        return {"berezin.witness_configs": out.n_configs}
    if attr == "surviving_blocks":
        return {"plancherel.blocks": len(out)}
    if layer == "reporting":
        return {"reporting.bytes": len(out.encode("utf-8"))}
    return {}


class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request]
        self.counts: Counter = Counter()
        self.request = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans = []
        self.counts = Counter()

    def install(self, bindings=BINDINGS) -> None:
        self.absent = []
        for module_name, attr, layer, span in bindings:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            name = f"{layer}.{attr}"
            wrapper = self._span(name, original) if span else self._counter(name, original)
            self._undo.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            for key, value in _result_counts(name, out).items():
                self.counts[key] += value
            return out

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts, pass_seconds: float) -> dict[str, float]:
    """Per-layer times and counts for one traced pass.

    A layer's total time counts only its outermost spans, so a layer
    function that calls another one of the same layer is not counted
    twice.  Self time subtracts every child span, of any layer.
    """
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    roots = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.rpartition(".")[0]
        own[layer] += selfs[i]
        calls[name] += 1
        if parent < 0:
            roots += end - start
        if parent < 0 or spans[parent][0].rpartition(".")[0] != layer:
            total[layer] += end - start

    def calls_of(layer: str) -> int:
        return sum(n for name, n in calls.items() if name.rpartition(".")[0] == layer)

    sample_s = total["compact"]
    matrices = counts["compact.matrices"]
    samples, resamples = counts["integrals.samples"], counts["integrals.resamples"]
    coeff_blocks = calls["plancherel.coeff.coeff_V_o"] + calls["plancherel.coeff.coeff_CVQ_u"]
    return {
        "compact.sample_s": sample_s,
        "compact.matrices": matrices,
        "compact.matrices_per_s": matrices / sample_s if sample_s > 0 else 0.0,
        "integrals.mc_self_s": own["integrals.mc"],
        "integrals.closed_form_s": total["integrals.closed_form"],
        "integrals.quadrature_s": total["integrals.quadrature"],
        "integrals.blocks": counts["integrals.block.block_rng"],
        "integrals.resamples": resamples,
        "integrals.accept_ratio": samples / (samples + resamples) if samples else 0.0,
        "berezin.restriction_self_s": own["berezin.restriction"],
        "berezin.kernel_self_s": own["berezin.kernel"],
        "berezin.kernel_calls": calls["berezin.kernel.berezin_kernel"]
        + calls["berezin.kernel._gram_matrix"],
        "berezin.witness_configs": counts["berezin.witness_configs"],
        "ball.self_s": own["ball"],
        "ball.calls": calls_of("ball"),
        "plancherel.enumerate_s": total["plancherel.enumerate"],
        "plancherel.blocks": counts["plancherel.blocks"],
        "plancherel.coeff_s": total["plancherel.coeff"],
        "plancherel.coeff_us_per_block": (
            1e6 * total["plancherel.coeff"] / coeff_blocks if coeff_blocks else 0.0
        ),
        "plancherel.weight_s": total["plancherel.weight"],
        "plancherel.weight_evals": calls_of("plancherel.weight"),
        "plancherel.rank1_s": total["plancherel.rank1"],
        "gammaval.values": sum(n for k, n in counts.items() if k.startswith("gammaval.")),
        "hermitization.s": total["hermitization"],
        "hermitization.dims_checks": calls["hermitization.dims_match"],
        "reporting.render_s": total["reporting"],
        "reporting.bytes": counts["reporting.bytes"],
        "cli.self_s": pass_seconds - roots,
    }
