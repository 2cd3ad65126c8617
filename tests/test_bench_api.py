"""The package API that the benchmark's kernel timings call by name.

``perfbench/kernels.py`` reaches ``ScoreRecord``, ``TrialPair``,
``compute_eer(records)``, ``mmd_pair`` and the splice and LDE signatures
directly.  Calling each of its kernels once (timing nothing) makes a rename
fail here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

from crossadapt import corpus, evaluation, losses, model, numkit

KERNELS = Path(__file__).resolve().parent.parent / "perfbench" / "kernels.py"


def test_every_benchmark_kernel_runs_once():
    spec = importlib.util.spec_from_file_location("perfbench_kernels", KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    mods = {"model": model, "losses": losses, "numkit": numkit, "evaluation": evaluation,
            "corpus": corpus}
    cases = list(kernels.kernel_cases(mods, seed=1))
    assert cases
    for _, call, _ in cases:
        call()
