"""The package API that the benchmark's kernel timings call by name.

``perfbench/kernels.py`` reaches ``ScoreRecord``, ``TrialPair``,
``compute_eer(records)``, ``mmd_pair`` and the splice and LDE signatures
directly.  Calling each of its kernels once (timing nothing) makes a rename
fail here rather than in a benchmark run.  ``perfbench/spans.py`` counts the
work of a few traced calls by span name; each of those names must be a
function or method its tracer wraps, or a rename would read as zero work.
"""

import importlib
import importlib.util
from pathlib import Path

from crossadapt import corpus, evaluation, losses, model, numkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_kernel_runs_once():
    kernels = load_perfbench("kernels")
    mods = {"model": model, "losses": losses, "numkit": numkit, "evaluation": evaluation,
            "corpus": corpus}
    cases = list(kernels.kernel_cases(mods, seed=1))
    assert cases
    for _, call, _ in cases:
        call()


def test_every_span_hook_names_a_traced_call():
    spans = load_perfbench("spans")
    wrapped = set()

    class Recorder(spans.Tracer):
        def _wrap(self, name, fn):
            wrapped.add(name)
            return super()._wrap(name, fn)

    tracer = Recorder()
    try:
        tracer.install({layer: importlib.import_module(f"crossadapt.{layer}") for layer in spans.LAYERS})
    finally:
        tracer.uninstall()
    assert wrapped and set(spans._HOOKS) <= wrapped, sorted(set(spans._HOOKS) - wrapped)
