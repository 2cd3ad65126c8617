"""In-process span tracer for the crossadapt modules.

``Tracer.install`` wraps every public function and public method defined in
the layer modules, and rebinds each wrapper under every module-global name
that referred to the original function, so calls made through a by-name
import (``from .corpus import read_features``) are traced too.  Methods are
wrapped on their class.  Each wrapper records calls, inclusive time and
self time (inclusive time minus the time of traced calls made inside it).
A few wrappers also run a hook that counts the work a call did (frames,
bytes, trials).  ``uninstall`` puts every original back.

Spans live in memory only; ``Tracer.stats`` is read when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "corpus", "pipeline", "model", "losses", "numkit", "evaluation")
FROZEN_STAGES = ("finetune", "adapt")


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self.counters = {}
        self.step_ms = {}  # stage -> list of step durations
        self.stage = None
        self.root_s = 0.0  # time covered by outermost spans
        self._stack = []  # child time of each open span
        self._step_start = None
        self._frozen_masks = {}  # id(store array) -> (array, touched-row mask)
        self._patched = []

    # -- counting -----------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def distinct_frozen_frames(self):
        return int(sum(mask.sum() for _, mask in self._frozen_masks.values()))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child[0]
            if hook is not None:
                hook(self, start, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules):
        """Wrap the public functions and methods of ``modules`` (by layer name)."""
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _wrap_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# -- hooks: (tracer, start, args, kwargs, result) after a traced call returns ---


def _write_features(tr, start, args, kwargs, result):
    feats = np.asarray(args[1])
    tr.count("corpus.write_features.bytes", 16 + 4 * feats.size)


def _read_features(tr, start, args, kwargs, result):
    tr.count("corpus.read_features.bytes", 16 + 4 * result.size)


def _load_feature_store(tr, start, args, kwargs, result):
    manifest = args[0]
    train = {r.utt_id for r in manifest.records if r.split == "train"}
    total = sum(a.nbytes for a in result.values())
    used = sum(a.nbytes for u, a in result.items() if u in train)
    tr.counters["pipeline.store_mb"] = max(tr.counters.get("pipeline.store_mb", 0.0), total / 1e6)
    tr.counters["pipeline.store_used_ratio"] = used / total


def _sample(tr, start, args, kwargs, result):
    if tr._step_start is None:
        tr._step_start = start


def _adam_step(tr, start, args, kwargs, result):
    groups = args[0]
    params = [p for g in groups if not g.frozen for p in g.tensors.values()]
    tr.count("numkit.adam_step.tensors", len(params))
    # param, m, v, vhat and grad are each read or written once per update
    tr.count("numkit.adam_step.bytes", 5 * sum(p.nbytes for p in params))
    if tr._step_start is not None and tr.stage is not None:
        tr.step_ms.setdefault(tr.stage, []).append(1e3 * (perf_counter() - tr._step_start))
    tr._step_start = None


def _extractor_forward(tr, start, args, kwargs, result):
    x = args[1]
    frames = int(np.shape(x)[0])
    tr.count("model.extractor_forward.frames", frames)
    if tr.stage not in FROZEN_STAGES:
        return
    tr.count("model.frozen_prefix.frames", frames)
    base = getattr(x, "base", None)
    if not isinstance(base, np.ndarray) or base.ndim != 2:
        return
    # a training crop is a row slice of an utterance in the feature store
    offset = (x.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // base.strides[0]
    entry = tr._frozen_masks.get(id(base))
    if entry is None:
        entry = tr._frozen_masks[id(base)] = (base, np.zeros(base.shape[0], dtype=bool))
    entry[1][offset : offset + frames] = True


def _save_checkpoint(tr, start, args, kwargs, result):
    tr.count("model.save_checkpoint.bytes", os.path.getsize(args[0]))


def _score_trials(tr, start, args, kwargs, result):
    tr.count("evaluation.score_trials.trials", len(result))


_HOOKS = {
    "corpus.write_features": _write_features,
    "corpus.read_features": _read_features,
    "pipeline.load_feature_store": _load_feature_store,
    "pipeline.sample_supervised": _sample,
    "pipeline.sample_batches": _sample,
    "numkit.adam_step": _adam_step,
    "model.Model.extractor_forward": _extractor_forward,
    "model.save_checkpoint": _save_checkpoint,
    "evaluation.score_trials": _score_trials,
}
