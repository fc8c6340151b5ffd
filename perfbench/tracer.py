"""Per-layer tracing of the ``addcubic`` package, applied from outside it.

:meth:`Tracer.install` replaces public functions of the package's modules
with wrappers that record one span per call: its name, start, end, parent
span, run id and a small payload taken from the arguments or the returned
value.  Spans stay in memory; :meth:`Tracer.layer_metrics` reduces them
to the per-layer metrics once the traced run is over, and
:meth:`Tracer.uninstall` puts every original function back.

A span's self time is its duration minus the durations of its child
spans.  The package is single-threaded, so children never overlap and
that difference is exactly the uncovered part of the span.
"""

from __future__ import annotations

import time
from collections import defaultdict

# SampleSpec methods; every call is a "config.sample" span.
SAMPLE_METHODS = ("from_json", "to_json", "explicit_points", "random_points",
                  "sample_points", "explicit_pairs", "random_pairs",
                  "sample_pairs")


def _eval_info(args, kwargs, result):
    return args  # (model, coords, mode)


def _combine_info(args, kwargs, result):
    terms = args[3] if len(args) > 3 else kwargs["terms"]
    return terms, len(terms)


def _iterate_info(args, kwargs, result):
    return result.n_steps, result.converged


def _recover_info(args, kwargs, result):
    return len(result.points)


def _series_info(args, kwargs, result):
    return result.terms_used


def _size_info(args, kwargs, result):
    return result.stat().st_size


class Tracer:
    """Span recorder plus the patch table that installs and removes it."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        # Each span: (name, start, end, parent index or -1, run id, info).
        self.spans: list[tuple] = []
        self.counters = {"models.points_built": 0, "scalars.format_calls": 0}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._rule_kinds: dict[int, str] = {}

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, info=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, start, clock(), parent, run_id, None)
                raise
            end = clock()
            stack.pop()
            payload = info(args, kwargs, result) if info else None
            spans[index] = (name, start, end, parent, run_id, payload)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owners, make_wrapper) -> None:
        """Wrap the attribute shared by every (owner, attr) and patch all."""
        raw = vars(owners[0][0])[owners[0][1]]
        for owner, attr in owners:
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"{owner!r}.{attr} is not the shared object")
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        for owner, attr in owners:
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Tracer":
        """Patch the package; import it first so the modules exist."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import addcubic
        from addcubic import (bounds, cli, config, direct_method, harness,
                              models, noise, residuals, scalars)

        self._rule_kinds = {id(residuals.MIXED_RULE): "mixed",
                            id(residuals.ADDITIVE_RULE): "additive",
                            id(residuals.CUBIC_RULE): "cubic"}
        spans = [
            ([(models.FuncModel, "evaluate_coords")], "models.eval", _eval_info),
            ([(models.Linear, "evaluate")], "models.atom.linear", None),
            ([(models.CubicHomogeneous, "evaluate")], "models.atom.cubic", None),
            ([(models.Even, "evaluate")], "models.atom.even", None),
            ([(models.BoundedNoise, "evaluate")], "models.atom.noise", None),
            ([(models.PowerNoise, "evaluate")], "models.atom.noise", None),
            ([(noise, "sample")], "noise.sample", None),
            ([(residuals, "combine")], "residuals.combine", _combine_info),
            ([(residuals, "chain_replay")], "residuals.chain_replay", None),
            ([(direct_method, "additive_iterate")], "direct_method.iterate",
             _iterate_info),
            ([(direct_method, "cubic_iterate")], "direct_method.iterate",
             _iterate_info),
            ([(direct_method, "recover"), (harness, "recover")],
             "direct_method.recover", _recover_info),
            ([(bounds, "series_bound")], "bounds.series", _series_info),
            ([(bounds, "certify_phi")], "bounds.certify", None),
            ([(config.ExperimentConfig, "load")], "config.load", None),
            ([(config.SweepSpec, "load")], "config.load", None),
            ([(harness, "write_json")], "harness.write", _size_info),
            ([(harness, "write_csv")], "harness.write", _size_info),
        ] + [([(config.SampleSpec, method)], "config.sample", None)
             for method in SAMPLE_METHODS]
        for owners, name, info in spans:
            self._replace(owners, lambda fn, n=name, i=info: self._span(n, fn, i))
        self._replace([(models.Point, "__post_init__")],
                      lambda fn: self._count("models.points_built", fn))
        self._replace([(scalars, "format_number"), (config, "format_number"),
                       (direct_method, "format_number"),
                       (harness, "format_number"),
                       (addcubic, "format_number")],
                      lambda fn: self._count("scalars.format_calls", fn))
        # The CLI dispatches through a table built at import time.
        for command, (loader, runner) in list(cli._RUNNERS.items()):
            self._patches.append((cli._RUNNERS, command, (loader, runner)))
            cli._RUNNERS[command] = (loader, self._span("harness.run", runner))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of everything recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        in_recover = [False] * len(spans)
        distinct = set()
        combine_terms = 0
        iterate_steps = converged = points = series_terms = written = 0
        sample_top_s = 0.0
        recover_evals = 0
        for index, (name, start, end, parent, _, info) in enumerate(spans):
            duration = end - start
            parent_name = spans[parent][0] if parent >= 0 else None
            key = name
            if name == "residuals.combine":
                terms, count = info or ((), 0)
                combine_terms += count
                key = "residuals.combine." + self._rule_kinds.get(
                    id(terms), "chain" if parent_name == "residuals.chain_replay"
                    else "other")
                calls[name] += 1
            calls[key] += 1
            self_s[key] += duration - child_time[index]
            total_s[key] += duration
            in_recover[index] = (name == "direct_method.recover"
                                 or (parent >= 0 and in_recover[parent]))
            if info is None:  # no payload: the call raised, or has none
                continue
            if name == "models.eval":
                model, coords, mode = info
                distinct.add((id(model), coords, mode))
                recover_evals += in_recover[index]
            elif name == "direct_method.iterate":
                iterate_steps += info[0]
                converged += info[1]
            elif name == "direct_method.recover":
                points += info
            elif name == "bounds.series":
                series_terms += info
            elif name == "harness.write":
                written += info
            elif name == "config.sample" and parent_name != "config.sample":
                sample_top_s += duration
        evals = calls["models.eval"]
        iterates = calls["direct_method.iterate"]
        return {
            "models.eval_calls": evals,
            "models.eval_distinct_frac": len(distinct) / evals if evals else 0.0,
            "models.eval_self_s": self_s["models.eval"],
            "models.atom.linear_self_s": self_s["models.atom.linear"],
            "models.atom.cubic_self_s": self_s["models.atom.cubic"],
            "models.atom.noise_self_s": self_s["models.atom.noise"],
            "models.points_built": self.counters["models.points_built"],
            "noise.sample_calls": calls["noise.sample"],
            "noise.sample_self_s": self_s["noise.sample"],
            "residuals.combine_calls": calls["residuals.combine"],
            "residuals.combine_terms": combine_terms,
            "residuals.chain_replays": calls["residuals.chain_replay"],
            "residuals.combine.mixed_self_s": self_s["residuals.combine.mixed"],
            "residuals.combine.additive_self_s":
                self_s["residuals.combine.additive"],
            "residuals.combine.cubic_self_s": self_s["residuals.combine.cubic"],
            "residuals.combine.chain_self_s": self_s["residuals.combine.chain"],
            "direct_method.iterate_steps": iterate_steps,
            "direct_method.iterate_self_s": self_s["direct_method.iterate"],
            "direct_method.step_us": (total_s["direct_method.iterate"]
                                      / iterate_steps * 1e6
                                      if iterate_steps else 0.0),
            "direct_method.converged_frac": (converged / iterates
                                             if iterates else 0.0),
            "direct_method.evals_per_point": (recover_evals / points
                                              if points else 0.0),
            "direct_method.recover_self_s": self_s["direct_method.recover"],
            "bounds.series_calls": calls["bounds.series"],
            "bounds.series_terms": series_terms,
            "bounds.series_self_s": self_s["bounds.series"],
            "bounds.certify_self_s": self_s["bounds.certify"],
            "config.load_s": total_s["config.load"],
            "config.sample_s": sample_top_s,
            "harness.self_s": self_s["harness.run"],
            "harness.write_s": total_s["harness.write"],
            "harness.bytes_written": written,
            "scalars.format_calls": self.counters["scalars.format_calls"],
        }
