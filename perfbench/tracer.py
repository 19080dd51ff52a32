"""Benchmark-owned spans around calls into affsym's public functions.

A Tracer replaces each traced function by a wrapper at every namespace of
the loaded ``affsym`` modules where the function object is bound: its own
module, ``from .x import y`` sites such as ``verify.r_power_tensor`` or
``cli.nabla_S_codazzi``, the package namespace, and class attributes such
as ``jets.Jet.__mul__``.  A wrapper records a span (layer, start, end,
parent span, op id) in memory; self time is derived from the spans after
the run.  Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: (layer, module, attribute).  The first block holds the layers the
#: benchmark reports; the rest are the other public functions cli.main
#: calls, traced so that cli.main's self time is report assembly only.
TARGETS = (
    ("jets.mul", "affsym.jets", "Jet.__mul__"),
    ("jets.partial", "affsym.jets", "Jet.partial"),
    ("jets.eval_jet", "affsym.jets", "eval_jet"),
    ("geometry.structure_jets", "affsym.geometry", "structure_jets"),
    ("geometry.induced_structure", "affsym.geometry", "induced_structure"),
    ("tensor_ops.nabla_tensor", "affsym.tensor_ops", "nabla_tensor"),
    ("tensor_ops.r_power_tensor", "affsym.tensor_ops", "r_power_tensor"),
    ("tensor_ops.r_power_action", "affsym.tensor_ops", "r_power_action"),
    ("tensor_ops.alternating_sum_identity", "affsym.tensor_ops",
     "alternating_sum_identity"),
    ("model.assemble", "affsym.model", "assemble"),
    ("model.random_omega", "affsym.model", "random_omega"),
    ("verify.sample_spec", "affsym.verify", "sample_spec"),
    ("verify.run_oracle", "affsym.verify", "run_oracle"),
    ("verify.check_rank_theorem", "affsym.verify", "check_rank_theorem"),
    ("verify.theorem_witness", "affsym.verify", "theorem_witness"),
    ("canonical.decompose", "affsym.canonical", "decompose"),
    ("canonical.classify", "affsym.canonical", "classify"),
    ("scenarios.load_scenario", "affsym.scenarios", "load_scenario"),
    ("expr.parse_expr", "affsym.expr", "parse_expr"),
    ("expr.evaluate", "affsym.expr", "evaluate"),
    ("cli.main", "affsym.cli", "main"),
    ("geometry.curvature", "affsym.geometry", "curvature"),
    ("geometry.fundamental_residuals", "affsym.geometry", "fundamental_residuals"),
    ("geometry.frame_residual", "affsym.geometry", "frame_residual"),
    ("geometry.gauss_curvature_tensor", "affsym.geometry", "gauss_curvature_tensor"),
    ("tensor_ops.nabla_S_codazzi", "affsym.tensor_ops", "nabla_S_codazzi"),
    ("verify.list_oracles", "affsym.verify", "list_oracles"),
    ("verify.power_of", "affsym.verify", "power_of"),
    ("verify.run_family", "affsym.verify", "run_family"),
    ("canonical.rank", "affsym.canonical", "rank"),
    ("scenarios.scenario_digest", "affsym.scenarios", "scenario_digest"),
)

ESCALATED = "clustering threshold escalated"


#: layer -> hook(result), a number stored on the span and summed per layer
HOOKS = {
    # entries of the dense R^k.T, n^(2k+p): computed, not measured
    "tensor_ops.r_power_tensor": lambda tensor: int(np.size(tensor)),
    "verify.theorem_witness": lambda report: sum(e.found for e in report.entries),
    "canonical.decompose": lambda pair: int(any(ESCALATED in w for w in pair.warnings)),
}


def _resolve(module, attr):
    owner = sys.modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else (None, None, None)


class Tracer:
    """Installs span-recording wrappers on enter and restores on exit."""

    def __init__(self):
        self.layers = [layer for layer, _, _ in TARGETS]
        self.originals = [None] * len(TARGETS)
        self._patches = []
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.value = {}          # span index -> hook value
        self._stack = [-1]
        self.current_op = -1

    def _wrap(self, idx, fn, hook):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack, value = self.parent, self.op, self._stack, self.value
        clock = time.perf_counter

        # the clock is read first and last, so that the wrapper's own
        # bookkeeping counts in this span and not in its parent's self time
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            starts.append(clock())
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    value[i] = hook(result)
            finally:
                stack.pop()
                ends[i] = clock()
            return result
        return traced

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "affsym" or name.startswith("affsym.")]
        for idx, (layer, module, attr) in enumerate(TARGETS):
            owner, name, fn = _resolve(module, attr)
            if fn is None:
                continue
            self.originals[idx] = fn
            wrapper = self._wrap(idx, fn, HOOKS.get(layer))
            spaces = [owner] if isinstance(owner, type) else modules
            for space in spaces:
                for key, val in list(vars(space).items()):
                    if val is fn:
                        self._patches.append((space, key, fn))
                        setattr(space, key, wrapper)
        return self

    def __exit__(self, *exc):
        for space, key, fn in reversed(self._patches):
            setattr(space, key, fn)
        self._patches.clear()
        return False

    def arrays(self):
        return {"layers": np.array(self.layers),
                "name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int32)}

    def summary(self):
        """Per layer: calls, self seconds and summed hook values; plus the
        probes (r_power_* calls) made inside theorem_witness spans."""
        a = self.arrays()
        nl = len(self.layers)
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        values = np.zeros(len(dur))
        for i, v in self.value.items():
            values[i] = v
        witness = self.layers.index("verify.theorem_witness")
        probe = {self.layers.index("tensor_ops.r_power_tensor"),
                 self.layers.index("tensor_ops.r_power_action")}
        inside = [False] * len(dur)
        probes = 0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            inside[i] = p >= 0 and (self.name[p] == witness or inside[p])
            probes += inside[i] and n in probe
        return {
            "calls": np.bincount(name, minlength=nl).tolist(),
            "self_s": np.bincount(name, weights=own, minlength=nl).tolist(),
            "value": np.bincount(name, weights=values, minlength=nl).tolist(),
            "witness_probes": probes,
        }
