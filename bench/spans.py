"""In-memory span tracing of collkit's layers, installed from outside the package.

Each traced function is replaced, in every loaded ``collkit`` module that binds
it, by a wrapper that records a span (name, start, end, parent, counts).  The
package source is not modified; ``Tracer.uninstall`` restores the originals.
A target that no longer exists (renamed by a later change) is recorded in
``Tracer.missing`` with the reason, and the metrics that depend on it are
reported as unmeasured instead of failing the run.
"""

import statistics
import sys
import time

import numpy as np


def _field_counts(args, result):
    vals = np.asarray(result)
    return {"points": int(vals.size), "nonzero": int(np.count_nonzero(vals))}


def _rule_counts(args, result):
    return {"nodes": int(len(result[0]))}


def _engine_counts(args, result):
    engine = args[0]
    n_conv = len(engine.kernel_hats) + (engine.c_hat is not None)
    return {"fft_len": int(engine.size), "n_conv": int(n_conv)}


# (span name, module, attribute path, counter).  Rule builders and operator
# routes are imported by name into several modules; every binding is wrapped.
TARGETS = [
    ("util.rule_build", "collkit.util", "gauss_panel", _rule_counts),
    ("util.rule_build", "collkit.util", "graded_panels", _rule_counts),
    ("util.rule_build", "collkit.util", "geometric_panels", _rule_counts),
    ("util.rule_build", "collkit.util", "sphere_rule", _rule_counts),
    ("core.field_eval", "collkit.core", "VelocityField.__call__", _field_counts),
    ("core.kernel_setup", "collkit.core", "KernelSpec.__post_init__", None),
    ("landau.polar_nodes", "collkit.landau", "polar_nodes", None),
    ("landau.coefficients", "collkit.landau", "landau_coefficients", None),
    ("landau.point", "collkit.landau", "q_landau", None),
    ("boltzmann.sigma_point", "collkit.boltzmann", "q_boltzmann_sigma", None),
    ("boltzmann.carleman_point", "collkit.boltzmann", "q_boltzmann_carleman", None),
    ("boltzmann.singular_conv", "collkit.landau", "singular_convolution", None),
    ("verify.hyperplane", "collkit.verify", "boltzmann_hyperplane_integral", None),
    ("verify.m0_search", "collkit.verify", "boltzmann_m0_search", None),
    ("verify.delta_search", "collkit.verify", "boltzmann_delta_search", None),
    ("verify.contact", "collkit.verify", "contact_estimate_check", None),
    ("solver.engine_init", "collkit.solver", "_CoefficientEngine.__init__", _engine_counts),
    ("solver.refresh", "collkit.solver", "_CoefficientEngine.coefficients", None),
    ("solver.stencil", "collkit.solver", "_second_derivatives", None),
    ("solver.validity", "collkit.solver", "GridField.check_validity", None),
]


class Tracer:
    """Records spans as ``[name, start, end, parent_index, counts]`` lists."""

    def __init__(self):
        self.spans = []
        self.missing = {}
        self._stack = []
        self._restore = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index, counts=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = counts
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, tracer._count(name, counter, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, counter, args, result):
        if counter is None:
            return None
        try:
            return counter(args, result)
        except (AttributeError, TypeError, IndexError) as exc:
            reasons = self.missing.setdefault(name, [])
            reason = f"counter failed: {exc!r}"
            if reason not in reasons:
                reasons.append(reason)
            return None

    def install(self, targets=TARGETS):
        """Wrap each target; record unresolvable ones in ``missing``."""
        for name, module_name, path, counter in targets:
            where = f"{module_name}.{path}"
            module = sys.modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            try:
                if module is None:
                    raise AttributeError(f"module {module_name} is not loaded")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError as exc:
                self.missing.setdefault(name, []).append(f"{where} not found ({exc})")
                continue
            wrapped = self._wrap(name, original, counter)
            if owner is not module:
                self._bind(owner, attr, original, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "collkit" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped)

    def _bind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Duration of each span minus the part of it covered by its children."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def roots(spans):
    """Index of the outermost ancestor of each span."""
    out = []
    for span in spans:
        parent = span[3]
        out.append(out[parent] if parent is not None else len(out))
    return out


class LayerStats:
    """Per-name durations, self times and counts of the spans under chosen roots."""

    def __init__(self, spans, root_name):
        top = roots(spans)
        own = self_times(spans)
        self.total = {}
        self.self_ = {}
        self.counts = {}
        self.n_roots = sum(1 for s in spans if s[3] is None and s[0] == root_name)
        for i, span in enumerate(spans):
            if spans[top[i]][0] != root_name or span[3] is None:
                continue
            name = span[0]
            self.total.setdefault(name, []).append(span[2] - span[1])
            self.self_.setdefault(name, []).append(own[i])
            for key, value in (span[4] or {}).items():
                self.counts.setdefault(name, {}).setdefault(key, []).append(value)

    def median(self, name, use_self=False):
        vals = (self.self_ if use_self else self.total).get(name)
        return statistics.median(vals) if vals else 0.0

    def per_root(self, value):
        return value / self.n_roots if self.n_roots else 0.0

    def calls_per_root(self, name):
        return self.per_root(len(self.total.get(name, ())))

    def self_per_root(self, name):
        return self.per_root(sum(self.self_.get(name, ())))

    def count_sum(self, name, key):
        return sum(self.counts.get(name, {}).get(key, ()))

    def count_last(self, name, key):
        vals = self.counts.get(name, {}).get(key)
        return vals[-1] if vals else 0


def _fft_bytes_per_refresh(stats):
    """Bytes one refresh reads and writes, computed from the padded array sizes.

    Forward transform: padded real field in, half spectrum out.  Each of the
    ``n_conv`` convolutions reads two half spectra, writes their product, and
    transforms it back to a padded real array.  Averaged over the engines.
    """
    counts = stats.counts.get("solver.engine_init", {})
    per_engine = []
    for n, n_conv in zip(counts.get("fft_len", ()), counts.get("n_conv", ())):
        real = 8 * n**3
        half = 16 * n * n * (n // 2 + 1)
        per_engine.append(real + half + n_conv * (4 * half + real))
    return float(statistics.mean(per_engine)) if per_engine else 0.0


def _per_second(stats, name, key):
    busy = sum(stats.self_.get(name, ()))
    return stats.count_sum(name, key) / busy if busy > 0 else 0.0


def _fraction(stats, name, key, of):
    whole = stats.count_sum(name, of)
    return stats.count_sum(name, key) / whole if whole else 0.0


# (metric, unit, source span, value from the round stats and the setup stats).
# Times are medians per call unless named as totals; counts are per round.
PER_LAYER = [
    ("solver.refresh_s", "s", "solver.refresh", lambda s, u: s.median("solver.refresh", use_self=True)),
    ("solver.refresh_calls", "count", "solver.refresh", lambda s, u: s.calls_per_root("solver.refresh")),
    ("solver.fft_len", "count", "solver.engine_init",
     lambda s, u: s.count_last("solver.engine_init", "fft_len")),
    ("solver.fft_bytes_per_refresh", "B_computed", "solver.engine_init",
     lambda s, u: _fft_bytes_per_refresh(s)),
    ("solver.stencil_s", "s", "solver.stencil", lambda s, u: s.median("solver.stencil")),
    ("solver.engine_init_s", "s", "solver.engine_init", lambda s, u: s.median("solver.engine_init")),
    ("solver.validity_s", "s", "solver.validity", lambda s, u: s.median("solver.validity")),
    ("core.field_eval_s", "s", "core.field_eval", lambda s, u: s.self_per_root("core.field_eval")),
    ("core.field_eval_calls", "count", "core.field_eval", lambda s, u: s.calls_per_root("core.field_eval")),
    ("core.field_points", "count", "core.field_eval",
     lambda s, u: s.per_root(s.count_sum("core.field_eval", "points"))),
    ("core.field_points_per_s", "1/s", "core.field_eval",
     lambda s, u: _per_second(s, "core.field_eval", "points")),
    ("core.field_nonzero_frac", "frac", "core.field_eval",
     lambda s, u: _fraction(s, "core.field_eval", "nonzero", "points")),
    ("core.kernel_setup_s", "s", "core.kernel_setup", lambda s, u: u.median("core.kernel_setup")),
    ("util.rule_build_s", "s", "util.rule_build", lambda s, u: s.self_per_root("util.rule_build")),
    ("util.rule_build_calls", "count", "util.rule_build", lambda s, u: s.calls_per_root("util.rule_build")),
    ("util.rule_nodes", "count", "util.rule_build",
     lambda s, u: s.per_root(s.count_sum("util.rule_build", "nodes"))),
    ("landau.polar_nodes_s", "s", "landau.polar_nodes", lambda s, u: s.median("landau.polar_nodes")),
    ("landau.polar_nodes_calls", "count", "landau.polar_nodes",
     lambda s, u: s.calls_per_root("landau.polar_nodes")),
    ("landau.coefficients_s", "s", "landau.coefficients", lambda s, u: s.median("landau.coefficients")),
    ("landau.point_s", "s", "landau.point", lambda s, u: s.median("landau.point")),
    ("boltzmann.sigma_point_s", "s", "boltzmann.sigma_point",
     lambda s, u: s.median("boltzmann.sigma_point")),
    ("boltzmann.carleman_point_s", "s", "boltzmann.carleman_point",
     lambda s, u: s.median("boltzmann.carleman_point")),
    ("boltzmann.singular_conv_s", "s", "boltzmann.singular_conv",
     lambda s, u: s.median("boltzmann.singular_conv")),
    ("verify.hyperplane_s", "s", "verify.hyperplane", lambda s, u: s.median("verify.hyperplane")),
    ("verify.hyperplane_calls", "count", "verify.hyperplane",
     lambda s, u: s.calls_per_root("verify.hyperplane")),
    ("verify.m0_search_s", "s", "verify.m0_search", lambda s, u: s.median("verify.m0_search")),
    ("verify.delta_search_s", "s", "verify.delta_search", lambda s, u: s.median("verify.delta_search")),
    ("verify.contact_s", "s", "verify.contact", lambda s, u: s.median("verify.contact")),
]


def layer_metrics(spans, missing):
    """Per-layer metric values and, for each metric not measured, the reason."""
    rounds = LayerStats(spans, "bench.round")
    setup = LayerStats(spans, "bench.setup")
    values, unmeasured = {}, {}
    for metric, unit, source, fn in PER_LAYER:
        values[metric] = (float(fn(rounds, setup)), unit)
        stats = setup if source == "core.kernel_setup" else rounds
        if source in missing:
            unmeasured[metric] = "; ".join(missing[source])
        elif source not in stats.total:
            unmeasured[metric] = f"no {source} calls in this workload"
    return values, unmeasured
