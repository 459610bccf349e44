"""Spans around every public function of the khopsim layers, kept in memory.

``Tracer.install`` wraps each public function of the six layer modules and
rebinds every name in the package that refers to it, so functions imported
by name elsewhere, such as ``sym_eig`` in ``gain_tuning`` and ``plant_sim``,
are traced at each call site. A span is (name, start, end, parent).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "graph_khop",
    "dense_linalg",
    "gain_tuning",
    "khop_observer",
    "plant_sim",
    "scenario_cli",
)
PACKAGE = "khopsim"


def _matrix_dim(m) -> int:
    dim = getattr(m, "dim", None)
    return int(dim) if dim is not None else int(np.shape(m)[0])


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list = []
        self.max_dim: dict = {}
        self._patches: list = []
        self._wrapped: dict = {}

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.t0, self.t1):
            del arr[:]
        self.stack.clear()
        self.max_dim.clear()

    def _wrap(self, fn, name: str, dim_arg: bool = False):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, t0, t1, stack = (
            self.name_id, self.parent, self.t0, self.t1, self.stack
        )
        perf = time.perf_counter
        max_dim = self.max_dim

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if dim_arg and args:
                max_dim[name] = max(max_dim.get(name, 0), _matrix_dim(args[0]))
            idx = len(t0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t0.append(perf())
            t1.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                t1[idx] = perf()
                stack.pop()

        return traced

    def _wrap_layers(self) -> dict:
        wrapped = {}
        for mod in (sys.modules[f"{PACKAGE}.{m}"] for m in LAYERS):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, dim_arg=name == "dense_linalg.sym_eig")
        return wrapped

    def install(self) -> None:
        """Wrap the layers' public functions (once) and rebind every
        reference to them in the package."""
        if not self._wrapped:
            self._wrapped = self._wrap_layers()
        wrapped = self._wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = wrapped[obj]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches.clear()

    def collect(self) -> "Spans":
        """All spans recorded since the last ``clear``."""
        return Spans(
            names=list(self.names),
            name=np.frombuffer(self.name_id, dtype=np.intc).copy(),
            parent=np.frombuffer(self.parent, dtype=np.intc).copy(),
            t0=np.frombuffer(self.t0, dtype=float).copy(),
            t1=np.frombuffer(self.t1, dtype=float).copy(),
            max_dim=dict(self.max_dim),
        )


class Spans:
    """Recorded spans, in start order."""

    def __init__(self, names, name, parent, t0, t1, max_dim):
        self.names = names
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = t1
        self.max_dim = max_dim
        self.dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.dur[has_parent], minlength=name.size
        )
        self.self_time = self.dur - child

    def window(self, start: float, end: float) -> "Spans":
        """Spans that lie inside ``[start, end]``; a span whose parent is
        outside becomes a root."""
        keep = (self.t0 >= start) & (self.t1 <= end)
        new_index = np.full(keep.size, -1)
        new_index[keep] = np.arange(int(keep.sum()))
        par = self.parent[keep]
        par = np.where(par >= 0, new_index[np.maximum(par, 0)], -1)
        return Spans(
            self.names, self.name[keep], par, self.t0[keep], self.t1[keep], self.max_dim
        )

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def ids(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name == self._id(name))

    def total(self, name: str, attr: str = "dur") -> float:
        return float(getattr(self, attr)[self.ids(name)].sum())

    def calls(self, name: str) -> int:
        return int(self.ids(name).size)

    def _descendants(self, i: int) -> slice:
        """Spans are stored in start order, so a subtree is the run of later
        spans that start before this one ends."""
        return slice(i + 1, int(np.searchsorted(self.t0, self.t1[i], side="left")))

    def phase_mask(self, phase_names) -> np.ndarray:
        """Spans named in ``phase_names`` and everything under them."""
        mask = np.zeros(self.name.size, dtype=bool)
        for phase_name in phase_names:
            for i in self.ids(phase_name):
                mask[i] = True
                mask[self._descendants(i)] = True
        return mask

    def inside(self, phase_names, name: str) -> tuple:
        """(time of ``name`` inside spans named in ``phase_names``, phase time)."""
        mask = self.phase_mask(phase_names)
        inner = float(self.dur[mask][self.name[mask] == self._id(name)].sum())
        return inner, sum(self.total(p) for p in phase_names)

    def self_ranking(self, phase_names) -> list:
        """Self time by function inside spans named in ``phase_names``,
        largest first, as (name, seconds)."""
        ranked = self.self_by_name(self.phase_mask(phase_names)).items()
        return sorted(((k, v) for k, v in ranked if v > 0), key=lambda kv: -kv[1])

    def ranking_inside(self, phase_name: str) -> list:
        """Direct children of ``phase_name`` spans by name, plus its self
        time, largest first, as (label, seconds)."""
        ids = self.ids(phase_name)
        totals = {f"{phase_name} (self)": float(self.self_time[ids].sum())}
        mask = np.isin(self.parent, ids)
        for nid in np.unique(self.name[mask]):
            totals[self.names[nid]] = float(self.dur[mask & (self.name == nid)].sum())
        return sorted(totals.items(), key=lambda kv: -kv[1])

    def self_by_name(self, mask: np.ndarray) -> dict:
        per_name = np.bincount(
            self.name[mask], weights=self.self_time[mask], minlength=len(self.names)
        )
        return dict(zip(self.names, per_name.tolist()))

    def module_self(self) -> dict:
        """Self time per layer module."""
        out = {m: 0.0 for m in LAYERS}
        every = np.ones(self.name.size, dtype=bool)
        for label, value in self.self_by_name(every).items():
            out[label.split(".", 1)[0]] += value
        return out

    def covered(self) -> float:
        """Time under root spans (roots never overlap: one thread)."""
        return float(self.dur[self.parent < 0].sum())

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name, parent=self.parent,
            t0=self.t0, t1=self.t1,
        )
