"""Span tracing from outside the package, for the traced benchmark run.

`Tracer.install()` replaces each public function named in `SITES` with a
timing wrapper at every place the package binds it: the defining module
and every module that imported it by name.  Calls the package makes
internally through those names are therefore traced too.  Wrappers are
removed again by `uninstall()`, so untimed checks and untraced runs call
the original functions.

A span is (name, start, end, parent, job).  Spans are appended to flat
arrays in memory and saved with numpy once the run ends.  A span's self
time is its duration minus the durations of its direct children; a
layer's self time is the sum over the spans of that layer.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute) -> span name; the name's prefix is the layer
SITES = {
    ("embedsim.logic", "parse_kb"): "logic.parse",
    ("embedsim.logic", "entails"): "logic.oracle",
    ("embedsim.logic", "nm_consequence_rank"): "logic.oracle",
    ("embedsim.logic", "enumerate_models"): "logic.models",
    ("embedsim.constructors", "construct"): "constructors.construct",
    ("embedsim.strategies", "emb_avg"): "strategies.pool",
    ("embedsim.strategies", "emb_norm"): "strategies.pool",
    ("embedsim.strategies", "emb_had"): "strategies.pool",
    ("embedsim.strategies", "emb_ord"): "strategies.pool",
    ("embedsim.strategies", "lab_dot"): "strategies.label",
    ("embedsim.strategies", "lab_dist"): "strategies.label",
    ("embedsim.strategies", "lab_relu"): "strategies.label",
    ("embedsim.strategies", "lab_ord"): "strategies.label",
    ("embedsim.strategies", "lab_dot_on_norm"): "strategies.label",
    ("embedsim.strategies", "lab_dist_on_norm"): "strategies.label",
    ("embedsim.strategies", "strategy_accepts"): "strategies.accept",
    ("embedsim.strategies", "strategy_score"): "strategies.score",
    ("embedsim.strategies", "sig_conical_diagnostics"): "strategies.sig",
    ("embedsim.verifier", "verify_monotonic"): "verifier.sweep",
    ("embedsim.verifier", "verify_nonmonotonic"): "verifier.sweep",
    ("embedsim.certifier", "build_avg_dot_system"): "certifier.lp_build",
    ("embedsim.certifier", "build_avg_dist_relaxation"): "certifier.lp_build",
    ("embedsim.certifier", "lp_feasible"): "certifier.lp_solve",
    ("embedsim.certifier", "realize_from_witness"): "certifier.realize",
    ("embedsim.certifier", "decide_avg_dot"): "certifier.decide",
    ("embedsim.certifier", "certify_strategy_failure"): "certifier.certify",
    ("embedsim.certifier", "certify_nonmonotonic_failure"): "certifier.certify",
    ("embedsim.certifier", "conical_closure_certify"): "certifier.closure",
    ("embedsim.certifier", "reverify_certificate"): "certifier.replay",
    ("embedsim.table1", "run_table1"): "table1.build",
    ("embedsim.table1", "Table1Report.to_json"): "table1.json",
}

JOB = "bench.job"
LAYERS = ("logic", "constructors", "strategies", "verifier", "certifier",
          "table1")


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# Counters read off a wrapped call's arguments and result.  They run
# inside a span of their own ("trace.count") so that their cost is
# charged to tracing, not to the caller's self time.
def _count_models(c, args, result):
    c["logic.models"] += len(result)


def _count_construct(c, args, result):
    emb = result.embedding
    c["constructors.dimension"] = max(c["constructors.dimension"], emb.dimension)
    bits = max(_bits(x) for vecs in (emb.context, emb.output)
               for vec in vecs.values() for x in vec)
    c["constructors.coord_bits_max"] = max(c["constructors.coord_bits_max"], bits)


def _count_sweep(c, args, result):
    c["verifier.queries"] += result.queries
    c["verifier.mismatches"] += len(result.mismatches)


def _count_lp(c, args, result):
    system = args[0]
    c["certifier.lp_rows"] = max(c["certifier.lp_rows"], len(system.constraints))
    c["certifier.lp_cols"] = max(c["certifier.lp_cols"], len(system.variables))
    if result.feasible:
        values = list(result.witness.values())
    else:
        values = list(result.farkas.multipliers) + [result.farkas.gap]
    bits = max((_bits(x) for x in values), default=0)
    c["certifier.lp_max_bits"] = max(c["certifier.lp_max_bits"], bits)


def _count_closure(c, args, result):
    c["certifier.closure_assignments"] += result.total


def _count_json(c, args, result):
    c["table1.json_bytes"] += len(result.encode())


COUNTERS = {
    "logic.models": _count_models,
    "constructors.construct": _count_construct,
    "verifier.sweep": _count_sweep,
    "certifier.lp_solve": _count_lp,
    "certifier.closure": _count_closure,
    "table1.json": _count_json,
}
COUNTER_NAMES = ("logic.models", "constructors.dimension",
                 "constructors.coord_bits_max", "verifier.queries",
                 "verifier.mismatches", "certifier.lp_rows",
                 "certifier.lp_cols", "certifier.lp_max_bits",
                 "certifier.closure_assignments", "table1.json_bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("i")
        self.job_names: list[str] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._patches = self._find_sites()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.start)
        self.sid.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(len(self.job_names) - 1)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def begin_job(self, label: str) -> int:
        self.job_names.append(label)
        return self.open(JOB)

    def wrap(self, fn, name: str):
        tracer = self
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                hook = tracer.open("trace.count")
                try:
                    count(tracer.counters, args, result)
                finally:
                    tracer.close(hook)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        """Every (holder, attribute, original, wrapper) binding to patch.

        A site whose function no longer exists is skipped, so the
        benchmark keeps running (with that metric at zero) after a
        function is renamed or removed.
        """
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "embedsim" or name.startswith("embedsim.")}
        patches = []
        for (module, attr), span in SITES.items():
            if module not in package:
                continue
            holder = package[module]
            *owner, leaf = attr.split(".")
            for part in owner:
                holder = getattr(holder, part, None)
            original = getattr(holder, leaf, None) if holder else None
            if original is None:
                continue
            wrapper = self.wrap(original, span)
            if owner:
                patches.append((holder, leaf, original, wrapper))
                continue
            for mod in package.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        return patches

    def install(self) -> None:
        for holder, name, _, wrapper in self._patches:
            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original, _ in self._patches:
            setattr(holder, name, original)

    # -- results ----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"sid": np.frombuffer(self.sid, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "job": np.frombuffer(self.job, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), jobs=np.array(self.job_names),
                 **self.arrays())

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass (times in seconds)."""
        a = self.arrays()
        sid, parent = a["sid"], a["parent"]
        dur = (a["end"] - a["start"]).astype(np.float64) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        total = np.bincount(sid, weights=dur, minlength=k)
        self_total = np.bincount(sid, weights=own, minlength=k)
        calls = np.bincount(sid, minlength=k)

        def t(name, table=total):
            return float(table[self._ids[name]]) if name in self._ids else 0.0

        def n(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        # sweeps run by decide_avg_dot re-verify a realised witness
        reverify = 0.0
        if "verifier.sweep" in self._ids and "certifier.decide" in self._ids:
            mask = has_parent & (sid == self._ids["verifier.sweep"])
            mask[mask] &= sid[parent[mask]] == self._ids["certifier.decide"]
            reverify = float(dur[mask].sum())

        out = {
            "logic.parse_s": t("logic.parse"),
            "logic.oracle_s": t("logic.oracle"),
            "logic.oracle_calls": n("logic.oracle"),
            "logic.models_s": t("logic.models"),
            "constructors.construct_s": t("constructors.construct"),
            "strategies.pool_s": t("strategies.pool"),
            # excludes the pooling that the normalised rules call
            "strategies.label_s": t("strategies.label", self_total),
            "strategies.accept_s": t("strategies.accept"),
            "strategies.accept_calls": n("strategies.accept"),
            "strategies.score_s": t("strategies.score"),
            "strategies.score_calls": n("strategies.score"),
            "strategies.sig_s": t("strategies.sig"),
            "verifier.sweep_s": t("verifier.sweep"),
            "certifier.lp_build_s": t("certifier.lp_build"),
            "certifier.lp_solve_s": t("certifier.lp_solve"),
            "certifier.realize_verify_s": t("certifier.realize") + reverify,
            "certifier.closure_s": t("certifier.closure"),
            "certifier.replay_s": t("certifier.replay"),
            "certifier.replay_calls": n("certifier.replay"),
            "table1.build_s": t("table1.build"),
            "table1.json_s": t("table1.json"),
            "trace.top_level_s": t(JOB),
            "trace.unattributed_s": t(JOB, self_total),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                float(self_total[i]) for name, i in self._ids.items()
                if name.split(".")[0] == layer)
        for name, value in self.counters.items():
            out[name] = value
        maxima = {"constructors.dimension", "constructors.coord_bits_max",
                  "certifier.lp_rows", "certifier.lp_cols",
                  "certifier.lp_max_bits"}
        return {name: value if name in maxima else value / passes
                for name, value in out.items()}
