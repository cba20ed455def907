"""In-memory span tracer installed around the package's public functions.

Wrappers are put in place from the outside: a module-level function is
replaced in every beta_arena module that bound it at import time, a method
is replaced on its class.  Each call records a span (name, start, end,
parent span, operation id); self time is the span's duration minus the time
covered by its child spans.  Counters ride on the same wrappers.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, span_cap=500_000):
        self.names = []
        self.index = {}
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self.self_s = collections.Counter()
        self.calls = collections.Counter()
        self.counters = collections.Counter()
        self.stack = []  # [span id, child seconds]
        self.op_id = -1
        self._undo = []

    # -- recording ---------------------------------------------------------------

    def span(self, name, fn, after=None, on_error=None):
        """Wrap fn so each call is a span; after(result, args, kwargs) and
        on_error(exc) update counters."""
        nid = self.index.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            sid = len(tracer.spans)
            keep = sid < tracer.span_cap
            if keep:
                tracer.spans.append(None)
            else:
                sid = -1
                tracer.dropped += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if keep:
                    tracer.spans[sid] = (nid, t0, t1, parent, tracer.op_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn):
        """Wrap fn to count calls only (for hot predicates)."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def patch_function(self, module, attr, wrapper_factory):
        """Replace module.attr, and every other beta_arena binding of the same
        object, with wrapper_factory(original)."""
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("beta_arena"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr, wrapper_factory):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "fields":
                                 ["name", "start", "end", "parent", "op"]}) + "\n")
            for sp in self.spans:
                if sp is not None:
                    fh.write(json.dumps([self.names[sp[0]], sp[1], sp[2], sp[3], sp[4]]) + "\n")


def install(tracer):
    """Wrap the public functions of every package layer."""
    from beta_arena import complexexp, game, numeric, presets, quatexp, realexp, systems

    t = tracer
    c = t.counters

    def span(name, after=None, on_error=None):
        return lambda fn: t.span(name, fn, after, on_error)

    # numeric: every guarded floor, and how many landed in the ambiguity band
    def floor_done(res, args, kwargs):
        c["numeric.safe_floor.snaps"] += res[1]
    t.patch_function(numeric, "safe_floor", span("numeric.safe_floor", floor_done))

    # realexp
    def blocks_done(res, args, kwargs):
        c["realexp.enumerate_admissible.blocks"] += len(res)

    def cylinders_done(res, args, kwargs):
        c["realexp.cylinder_intervals.intervals"] += len(res)
        c["realexp.cylinder_intervals.full"] += sum(iv.full_length for iv in res)
    RB = realexp.RealBase
    t.patch_method(RB, "__init__", span("realexp.RealBase"))
    t.patch_method(RB, "digits", span("realexp.digits"))
    t.patch_method(RB, "enumerate_admissible", span("realexp.enumerate_admissible", blocks_done))
    t.patch_method(RB, "is_admissible", lambda fn: t.count("realexp.is_admissible", fn))
    t.patch_method(RB, "cylinder_intervals", span("realexp.cylinder_intervals", cylinders_done))

    # complexexp
    def tiles_done(res, args, kwargs):
        c["complexexp.Vk_squares.tiles"] += len(res)

    def tiles_refused(exc):
        if isinstance(exc, ValueError) and "refinement" in str(exc):
            c["complexexp.Vk_squares.refused"] += 1
    for fname in ("classify_digit_set", "v_threshold", "G_region", "gamma_constants"):
        t.patch_function(complexexp, fname, span(f"complexexp.{fname}"))
    t.patch_function(complexexp, "Vk_squares",
                     span("complexexp.Vk_squares", tiles_done, tiles_refused))
    t.patch_method(complexexp.ComplexBase, "expand", span("complexexp.ComplexBase.expand"))

    # quatexp
    t.patch_function(quatexp, "q_expand", span("quatexp.q_expand"))
    LD = quatexp.LatticeDomain
    t.patch_method(LD, "contains", span("quatexp.LatticeDomain.contains"))
    t.patch_method(LD, "cell_margin", span("quatexp.LatticeDomain.cell_margin"))

    # systems
    for cls, kind in ((systems.RealSystem, "real"), (systems.ComplexSystem, "complex"),
                      (systems.QuatSystem, "quat")):
        t.patch_method(cls, "step", span(f"systems.step.{kind}"))
        t.patch_method(cls, "contains", lambda fn: t.count("systems.contains", fn))
    t.patch_function(systems, "expand_digits", span("systems.expand_digits"))

    # game
    def play_wrapper(fn):
        inner = t.span("game.play", fn, lambda res, a, k: c.update(
            {"game.play.rounds": res.rounds_played}))

        def wrapper(params, alice, bob, *args, **kwargs):
            return inner(params, t.span("game.strategy.alice", alice),
                         t.span("game.strategy.bob", bob), *args, **kwargs)
        return wrapper

    def certified_done(res, args, kwargs):
        c["game.certified_digits.certified"] += res[1]
        c["game.certified_digits.requested"] += args[3] if len(args) > 3 else kwargs["m"]

    def verdict_done(res, args, kwargs):
        c[f"game.verdict.{res.verdict}"] += 1
    t.patch_function(game, "play", play_wrapper)
    t.patch_function(game, "certified_digits", span("game.certified_digits", certified_done))
    t.patch_function(game, "verify_outcome", span("game.verify_outcome", verdict_done))
    t.patch_function(game, "audit_trace", span("game.audit_trace"))
    t.patch_method(game.GameTrace, "to_json", span("game.to_json"))

    # presets: one span name per preset so build costs separate; a
    # StrategyError leaves through exactly one of build_preset and run_setup
    def strategy_error(exc):
        if isinstance(exc, game.StrategyError):
            c["game.strategy_error"] += 1

    def build_wrapper(fn):
        per_preset = {}

        def wrapper(name, **overrides):
            if name not in per_preset:
                per_preset[name] = t.span(f"presets.build_preset.{name}", fn,
                                          on_error=strategy_error)
            return per_preset[name](name, **overrides)
        return wrapper
    t.patch_function(presets, "build_preset", build_wrapper)
    t.patch_function(presets, "run_setup", span("presets.run_setup", on_error=strategy_error))


LAYERS = ("numeric", "realexp", "complexexp", "quatexp", "systems", "game", "presets", "cli")


def layer_metrics(tracer):
    """Flatten the tracer into metric name -> value."""
    out = {}
    for name, calls in tracer.calls.items():
        out[f"{name}.calls"] = calls
    for name, s in tracer.self_s.items():
        out[f"{name}.s"] = s
    out.update(tracer.counters)
    builds = [n for n in tracer.self_s if n.startswith("presets.build_preset.")]
    out["presets.build_preset.s"] = sum((tracer.self_s[n] for n in builds), 0.0)
    out["presets.build_preset.calls"] = sum(tracer.calls[n] for n in builds)
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum((s for n, s in tracer.self_s.items()
                                       if n.split(".", 1)[0] == layer), 0.0)
    blocks = tracer.counters["realexp.enumerate_admissible.blocks"]
    out["realexp.is_admissible.calls_per_block"] = (
        tracer.calls["realexp.is_admissible"] / blocks if blocks else 0.0)
    ivs = tracer.counters["realexp.cylinder_intervals.intervals"]
    out["realexp.cylinder_intervals.full_ratio"] = (
        tracer.counters["realexp.cylinder_intervals.full"] / ivs if ivs else 0.0)
    req = tracer.counters["game.certified_digits.requested"]
    out["game.certified_digits.certified_ratio"] = (
        tracer.counters["game.certified_digits.certified"] / req if req else 0.0)
    out["trace.spans"] = len(tracer.spans)
    out["trace.spans_dropped"] = tracer.dropped
    return out
