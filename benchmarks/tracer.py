"""Layer spans for mfresnet, recorded from outside the program.

`Recorder.install()` wraps the traced public functions of each mfresnet
module.  A function imported by name into other modules (for example
`simulate_particles` in `cli`, `trainer` and `objective`) is replaced under
every module global that refers to it, so calls through any import are
seen.  Each span records its name, start, end, parent span and thread; the
parent is the innermost open span on the same thread, so self time stays
correct when a thread pool runs units concurrently.  Counts come from the
arguments and return values of the wrapped calls.  Each span also records
the time its wrapper spent outside the wrapped call (span bookkeeping and
count extraction), which is the tracing overhead.  Spans stay in memory
until `write`.

`layer_metrics` turns a list of spans into the per-layer metrics.
"""
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np


def _ids_digest(ids):
    return hashlib.blake2s(np.ascontiguousarray(np.asarray(ids)).tobytes(), digest_size=8).hexdigest()


def _noise_table(a, result):
    ids = a["particle_ids"]
    key = [int(a["root_seed"]), _ids_digest(ids), int(a["n_steps"]), float(a["dt"]), int(a["dim"])]
    return {"paths": len(ids), "key": json.dumps(key)}


def _sample(a, result):
    return {"draws": int(a["n"]), "key": json.dumps([int(a["n"]), int(a["seed"])])}


def _simulate_particles(a, result):
    return {"particle_steps": len(a["samples"]) * int(a["n_steps"])}


def _simulate_augmented(a, result):
    return {"particle_steps": len(a["init_draws"][0]) * int(a["n_steps"])}


def _train(a, result):
    return {"accepted": len(result.history) - 1, "replications": int(a["cfg"].replications)}


def _fixed_point_solve(a, result):
    return {"iterations": len(result[1])}


def _estimate_G(a, result):
    return {"paths": int(a["n_paths"])}


def _fpk_residual(a, result):
    X = a["path"].X
    return {"atom_nodes": int(X.shape[0] * X.shape[1])}


# module -> {function (or Class.method): count extractor or None}
TRACED = {
    "rng": {"noise_table": _noise_table},
    "params": {"InitialLaw.sample": _sample},
    "sde": {"simulate_particles": _simulate_particles, "simulate_augmented": _simulate_augmented},
    "objective": {"evaluate_JN": None, "evaluate_Jd": None},
    "trainer": {"train": _train, "value_and_gradient": None},
    "fpk": {"fixed_point_solve": _fixed_point_solve, "estimate_G": _estimate_G,
            "solve_neumann_bvp": None},
    "measures": {"fpk_residual": _fpk_residual, "wasserstein2_1d": None},
    "cli": {"run_experiment": None},
}


def span_name(module, qualname):
    return f"{module}.{qualname.split('.')[-1]}"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []   # (id, name, start_ns, end_ns, parent_id, thread_id, info, cost_ns)
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn, extract):
        signature = inspect.signature(fn)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter_ns()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, time.perf_counter_ns(), parent,
                              threading.get_ident(), {"error": 1}, start - enter))
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            info = {}
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = extract(bound.arguments, result)
            cost = (start - enter) + (time.perf_counter_ns() - end)
            spans.append((sid, name, start, end, parent, threading.get_ident(), info, cost))
            return result

        return wrapper

    def install(self):
        importlib.import_module("mfresnet")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mfresnet" or n.startswith("mfresnet."))]
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"mfresnet.{module_name}")
            for qualname, extract in functions.items():
                name = span_name(module_name, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr], extract))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original, extract)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _union_ns(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans):
    """Per-layer metrics from one traced run's spans.

    `.s` is self time: a span's duration minus that of its direct children
    (children are always on the parent's thread).  `cli.run_experiment` is
    the root of the run and units of a thread pool run under it on other
    threads, so its self time is the part of its window that no other span
    covers on any thread; `trace.unattributed_share` is that part over the
    window.  `trace.overhead_share` is the wrappers' cost inside the window,
    summed over threads, over the window less that cost: the extra wall time
    of tracing relative to the run without it (an upper bound when a pool
    runs traced calls on several threads at once).
    """
    by_id = {s[0]: s for s in spans}
    child_ns = dict.fromkeys(by_id, 0)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls, self_ns, info_sum, keys = {}, {}, {}, {}
    for sid, name, start, end, _, _, info, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[sid]
        for k, v in info.items():
            if k == "key":
                keys.setdefault(name, []).append(v)
            else:
                info_sum.setdefault(name, {}).setdefault(k, 0)
                info_sum[name][k] += v

    def count(name, field=None):
        if field is None:
            return calls.get(name, 0)
        return info_sum.get(name, {}).get(field, 0)

    def seconds(name):
        return self_ns.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def redundant(name):
        ks = keys.get(name, [])
        return ratio(len(ks) - len(set(ks)), len(ks))

    def ancestor(sid, name):
        parent = by_id[sid][4]
        while parent is not None:
            if by_id[parent][1] == name:
                return by_id[parent]
            parent = by_id[parent][4]
        return None

    sims_in_train = 0
    candidates = 0.0
    for sid, name, _, _, parent, *_ in spans:
        if name != "sde.simulate_particles":
            continue
        owner = ancestor(sid, "trainer.train")
        if owner is None:
            continue
        sims_in_train += 1
        if parent == owner[0]:   # a line-search candidate, simulated by train itself
            candidates += 1.0 / owner[6].get("replications", 1)
    accepted = count("trainer.train", "accepted")

    m = {}
    m["rng.noise_table.calls"] = count("rng.noise_table")
    m["rng.noise_table.s"] = seconds("rng.noise_table")
    m["rng.noise_table.paths"] = count("rng.noise_table", "paths")
    m["rng.noise_table.us_per_path"] = ratio(seconds("rng.noise_table") * 1e6, m["rng.noise_table.paths"])
    m["rng.noise_table.redundant_ratio"] = redundant("rng.noise_table")
    m["params.sample.calls"] = count("params.sample")
    m["params.sample.s"] = seconds("params.sample")
    m["params.sample.draws"] = count("params.sample", "draws")
    m["params.sample.redundant_ratio"] = redundant("params.sample")
    sim, aug = "sde.simulate_particles", "sde.simulate_augmented"
    m[f"{sim}.calls"] = count(sim)
    m[f"{sim}.s"] = seconds(sim)
    m[f"{sim}.particle_steps"] = count(sim, "particle_steps")
    m[f"{sim}.ns_per_particle_step"] = ratio(seconds(sim) * 1e9, m[f"{sim}.particle_steps"])
    m[f"{aug}.calls"] = count(aug)
    m[f"{aug}.s"] = seconds(aug)
    m[f"{aug}.particle_steps"] = count(aug, "particle_steps")
    for name in ("objective.evaluate_JN", "objective.evaluate_Jd", "trainer.train",
                 "trainer.value_and_gradient", "fpk.fixed_point_solve", "fpk.estimate_G",
                 "fpk.solve_neumann_bvp", "measures.fpk_residual", "measures.wasserstein2_1d"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.s"] = seconds(name)
    m["trainer.accepted_steps"] = accepted
    m["trainer.armijo_backtracks"] = round(candidates) - accepted
    m["trainer.sims_per_accepted_step"] = ratio(sims_in_train, accepted)
    m["fpk.fixed_point.iterations"] = count("fpk.fixed_point_solve", "iterations")
    m["fpk.estimate_G.paths"] = count("fpk.estimate_G", "paths")
    m["measures.fpk_residual.atom_nodes"] = count("measures.fpk_residual", "atom_nodes")

    top = [s for s in spans if s[1] == "cli.run_experiment"]
    if top:
        t0, t1 = top[0][2], top[0][3]
        inside = [s for s in spans if s[1] != "cli.run_experiment" and s[3] > t0 and s[2] < t1]
        uncovered = (t1 - t0) - _union_ns((max(s[2], t0), min(s[3], t1)) for s in inside)
        cost = sum(s[7] for s in inside)
        m["cli.run_experiment.s"] = uncovered / 1e9
        m["trace.unattributed_share"] = uncovered / (t1 - t0)
        m["trace.overhead_share"] = cost / (t1 - t0 - cost)
    else:
        m["cli.run_experiment.s"] = 0.0
        m["trace.unattributed_share"] = 1.0
        m["trace.overhead_share"] = 0.0
    return m
