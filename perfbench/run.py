"""End-to-end benchmark of the crossadapt chain.

One run drives the real program in-process through ``crossadapt.cli.main``:
gen-corpus, pretrain, finetune, adapt, then evaluate on the finetune and the
adapt checkpoints.  It checks the outputs, and prints a record line (machine,
checkpoint sha256, per-domain EERs) and, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload recipe --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the chain repeats until ``--seconds`` is used (at least
twice) and the end-to-end metrics are medians over the repeats.  With
``--trace 1`` the chain runs once plain and once with every public function
of the package wrapped (see ``spans.py``), then the kernels are timed at
recipe shapes (see ``kernels.py``), and the per-layer metrics are printed.
``--size`` picks the scale: ``bench`` (default), ``full`` (the configs the
workloads are modelled on) or ``smoke`` (a few seconds, for the test).

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads: one thread per process, steady on a small box
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import kernels
import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 2
SETUPS = 3  # repeats that generate their own corpus; later ones reuse the first

# --set overrides per workload and size.  "full" is the config a workload is
# modelled on; "bench" scales it down so that a repeat fits many times into
# one run (see NOTES.md); "smoke" takes a few seconds.
_SMOKE = ["corpus.num_speakers=6", "finetune.steps=2", "adapt.steps=2"]
WORKLOADS = {
    "recipe": {
        "full": [],
        "bench": ["pretrain.steps=10", "finetune.steps=50", "adapt.steps=50"],
        "smoke": [*_SMOKE, "pretrain.steps=2"],
    },
    "scratch-train": {
        "full": ["pretrain.steps=720", "finetune.steps=60", "adapt.steps=30"],
        "bench": ["pretrain.steps=180", "finetune.steps=15", "adapt.steps=8"],
        "smoke": [*_SMOKE, "pretrain.steps=8"],
    },
    "eval-wide": {
        "full": ["corpus.num_speakers=120", "corpus.frames_per_utt=200", "pretrain.steps=60",
                 "finetune.steps=30", "adapt.steps=20", "adapt.kernel=rbf"],
        "bench": ["corpus.num_speakers=64", "corpus.frames_per_utt=200", "pretrain.steps=60",
                  "finetune.steps=30", "adapt.steps=20", "adapt.kernel=rbf"],
        "smoke": [*_SMOKE, "pretrain.steps=2", "corpus.frames_per_utt=200", "adapt.kernel=rbf"],
    },
}
STAGES = ("pretrain", "finetune", "adapt")
EVALUATED = ("finetune", "adapt")
UNITS = {"_s": "s", ".s": "s", "_per_s": "1/s", "_mb": "MB", "_mean": "ratio", "_ratio": "ratio",
         ".calls": "count", ".frames": "count", ".trials": "count", ".tensors": "count",
         ".bytes": "B", ".p50": "ms", ".p95": "ms", ".us": "us", ".flop": "flop"}


def unit_of(name):
    return UNITS[max((s for s in UNITS if name.endswith(s)), key=len)]


class Ops:
    """Counts operations (CLI calls and checks) and keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)
        return ok

    def cli(self, cli, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["-q", *map(str, argv)])
        except Exception as exc:  # a traceback from the program is a failed call
            rc = f"{type(exc).__name__}: {exc}"
        return self.check(rc == 0, f"crossadapt {argv[0]} returned {rc}")


def fresh_import():
    """Import the layer modules anew, so each repeat pays the import."""
    for name in [n for n in sys.modules if n == "crossadapt" or n.startswith("crossadapt.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"crossadapt.{layer}") for layer in spans.LAYERS}
    if not mods["cli"].__file__.startswith(str(SRC)):
        raise ImportError(f"crossadapt imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_chain(work, sets, seed, ops, tracer=None, corpus=None):
    """Run the chain once, after generating a corpus unless one is given;
    returns timings, hashes and EERs, or None when a CLI call fails."""
    setup = corpus is None
    flags = [f for s in sets for f in ("--set", s)] + ["--seed", seed]
    corpus = work / "corpus" if setup else corpus
    ckpt = {s: work / f"{s}.ckpt" for s in STAGES}
    report = {s: work / f"{s}.report" for s in EVALUATED}
    calls = [
        ("pretrain", ["pretrain", *flags, "--corpus", corpus, "--out", ckpt["pretrain"]]),
        ("finetune", ["finetune", *flags, "--init", ckpt["pretrain"], "--corpus", corpus,
                      "--out", ckpt["finetune"]]),
        ("adapt", ["adapt", *flags, "--init", ckpt["finetune"], "--corpus", corpus, "--out", ckpt["adapt"]]),
    ] + [("evaluate", ["evaluate", "--ckpt", ckpt[s], "--corpus", corpus, "--out", report[s]])
         for s in EVALUATED]
    work.mkdir(parents=True)
    gc.collect()
    wall, norm = {}, {}  # wall seconds, and seconds at reference host speed
    start = perf_counter()
    mods = fresh_import()
    if tracer is not None:
        tracer.install(mods)
        tracer.stage = "setup"
    try:
        cfg = mods["config"].load_config(None, sets, seed)
        if setup:
            if not ops.cli(mods["cli"], ["gen-corpus", *flags, "--out", corpus]):
                return None
            # file creation dominates set-up and no probe tracked it: wall time
            wall["setup_s"] = norm["setup_s"] = perf_counter() - start
        covered = tracer.root_s if tracer is not None else 0.0
        before = wall["cpu_probe_s"] = probe.cpu_probe()
        for stage, argv in calls:
            if tracer is not None:
                tracer.stage = stage
            t = perf_counter()
            if not ops.cli(mods["cli"], argv):
                return None
            took = perf_counter() - t
            after = probe.cpu_probe()
            wall["cpu_probe_s"] += after
            key = f"{stage}_s"
            wall[key] = wall.get(key, 0.0) + took
            norm[key] = norm.get(key, 0.0) + took / ((before + after) / (2 * probe.CPU_REF_S))
            before = after
        wall["cpu_probe_s"] /= len(calls) + 1
        for times in (wall, norm):
            times["chain_s"] = sum(times[f"{s}_s"] for s in (*STAGES, "evaluate"))
        if tracer is not None:
            wall["covered_s"] = tracer.root_s - covered
    finally:
        if tracer is not None:
            tracer.uninstall()

    num_domains = len(cfg.corpus.domains)
    eer = {}
    trials = 0
    for s in EVALUATED:
        try:
            parsed = mods["evaluation"].read_report(report[s])
        except Exception as exc:  # a malformed report fails the check below
            parsed, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            values = [d.eer for d in sorted(parsed.domains, key=lambda d: d.domain_id)]
            problem = f"domains {len(values)} of {num_domains}, EERs {values}"
        if ops.check(parsed is not None and len(values) == num_domains
                     and all(0.0 <= v <= 1.0 for v in values), f"{s} report: {problem}"):
            eer[s] = values
            trials += sum(d.n_trials for d in parsed.domains)
    hashes = {p.name: sha256(p) for p in [corpus / "manifest.tsv", *ckpt.values(), *report.values()]}
    p, f, a = cfg.pretrain, cfg.finetune, cfg.adapt
    crops = p.steps * p.batch_size + f.steps * f.batch_size + a.steps * (
        a.batch_size + (num_domains - 1) * a.tgt_batch_size)
    return {"corpus": corpus, "wall": wall, "normalized": norm, "sha256": hashes, "eer": eer, "crops": crops, "trials": trials}


def check_same(ops, first, other, label):
    for name, digest in first["sha256"].items():
        ops.check(other["sha256"].get(name) == digest, f"{name} differs between {label}")


def end_to_end(chains):
    def med(fn):
        return statistics.median(fn(c) for c in chains)

    out = {k: med(lambda c, k=k: c["normalized"][k])
           for k in ("pretrain_s", "finetune_s", "adapt_s", "evaluate_s", "chain_s")}
    out["setup_s"] = statistics.median(c["wall"]["setup_s"] for c in chains if "setup_s" in c["wall"])
    out["train_crops_per_s"] = med(
        lambda c: c["crops"] / sum(c["normalized"][f"{s}_s"] for s in STAGES))
    out["eval_trials_per_s"] = med(lambda c: c["trials"] / c["normalized"]["evaluate_s"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return out


def timed_run(args, sets, work_root, ops):
    deadline = perf_counter() + args.seconds
    chains = []
    while True:
        start = perf_counter()
        work = work_root / f"repeat{len(chains)}"
        corpus = chains[0]["corpus"] if len(chains) >= SETUPS else None
        chain = run_chain(work, sets, args.seed, ops, corpus=corpus)
        if chain is None:
            return None, chains
        if chains:
            check_same(ops, chains[0], chain, f"repeat 1 and repeat {len(chains) + 1}")
        chains.append(chain)
        if len(chains) >= MIN_REPEATS and perf_counter() + (perf_counter() - start) > deadline:
            break
    return end_to_end(chains), chains


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr, plain, traced):
    c = tr.counters
    m = {
        "cli.main.self_s": tr.self_s("cli.main"),
        "config.load_config.s": tr.total_s("config.load_config"),
        "corpus.gen_corpus.s": tr.total_s("corpus.gen_corpus"),
        "corpus.write_features.calls": tr.calls("corpus.write_features"),
        "corpus.write_features.bytes": c["corpus.write_features.bytes"],
        "corpus.read_features.calls": tr.calls("corpus.read_features"),
        "corpus.read_features.bytes": c["corpus.read_features.bytes"],
        "corpus.read_features.s": tr.total_s("corpus.read_features"),
        "corpus.manifest_load.s": tr.total_s("corpus.CorpusManifest.load"),
        "pipeline.load_feature_store.s": tr.total_s("pipeline.load_feature_store"),
        "pipeline.store_mb": c["pipeline.store_mb"],
        "pipeline.store_used_ratio": c["pipeline.store_used_ratio"],
        "pipeline.sample.self_s": tr.self_s(
            "pipeline.sample_supervised", "pipeline.sample_batches", "pipeline.crop_utterance"),
    }
    for stage in STAGES:
        for q in (50, 95):
            m[f"pipeline.step_ms.{stage}.p{q}"] = _percentile(tr.step_ms[stage], q / 100)
    m.update({
        "model.extractor_forward.calls": tr.calls("model.Model.extractor_forward"),
        "model.extractor_forward.frames": c["model.extractor_forward.frames"],
        "model.extractor_forward.self_s": tr.self_s("model.Model.extractor_forward"),
        "model.frozen_prefix.useful_ratio":
            tr.distinct_frozen_frames() / c["model.frozen_prefix.frames"],
        "model.extractor_backward.self_s": tr.self_s("model.Model.extractor_backward"),
        "model.splice_forward.self_s": tr.self_s("model.splice_forward"),
        "model.splice_backward.self_s": tr.self_s("model.splice_backward"),
        "model.affine_forward.self_s": tr.self_s("model.affine_forward"),
        "model.affine_backward.self_s": tr.self_s("model.affine_backward"),
        "model.relu.self_s": tr.self_s("model.relu_forward", "model.relu_backward"),
        "model.lde_pool.calls": tr.calls("model.lde_pool"),
        "model.lde_pool.self_s": tr.self_s("model.lde_pool"),
        "model.lde_pool_backward.self_s": tr.self_s("model.lde_pool_backward"),
        "model.subnet.self_s": tr.self_s("model.Model.subnet_forward", "model.Model.subnet_backward"),
        "model.head.self_s": tr.self_s("model.Model.head_forward", "model.Model.head_backward"),
        "model.classifier.self_s":
            tr.self_s("model.Model.classifier_forward", "model.Model.classifier_backward"),
        "model.save_checkpoint.s": tr.total_s("model.save_checkpoint"),
        "model.save_checkpoint.bytes": c["model.save_checkpoint.bytes"],
        "model.load_checkpoint.s": tr.total_s("model.load_checkpoint"),
        "losses.total_loss.self_s": tr.self_s("losses.total_loss"),
        "losses.discrepancy.self_s": tr.self_s("losses.discrepancy_loss", "losses.discrepancy_backward"),
        "losses.cross_entropy_grad.self_s": tr.self_s("losses.cross_entropy_grad"),
        "numkit.adam_step.calls": tr.calls("numkit.adam_step"),
        "numkit.adam_step.self_s": tr.self_s("numkit.adam_step"),
        "numkit.adam_step.tensors": c["numkit.adam_step.tensors"],
        "numkit.adam_step.bytes": c["numkit.adam_step.bytes"],
        "evaluation.embed_utterance.calls": tr.calls("evaluation.embed_utterance"),
        "evaluation.embed_utterance.self_s": tr.self_s("evaluation.embed_utterance"),
        "evaluation.score_trials.trials": c["evaluation.score_trials.trials"],
        # the per-trial loop: score_trials itself plus the cosine_score it calls
        "evaluation.score_trials.self_s": tr.self_s("evaluation.score_trials", "evaluation.cosine_score"),
        "evaluation.compute_eer.s": tr.total_s("evaluation.compute_eer"),
        "evaluation.write_report.s": tr.total_s("evaluation.write_report"),
        # deterministic per seed, but they vary too much between seeds to bound
        "evaluation.eer_finetune_mean": statistics.fmean(plain["eer"]["finetune"]),
        "evaluation.eer_adapt_mean": statistics.fmean(plain["eer"]["adapt"]),
        "trace.overhead_ratio": traced["wall"]["chain_s"] / plain["wall"]["chain_s"] - 1.0,
        "trace.unattributed_ratio": 1.0 - traced["wall"]["covered_s"] / traced["wall"]["chain_s"],
    })
    return m


def traced_run(args, sets, work_root, ops):
    plain = run_chain(work_root / "plain", sets, args.seed, ops)
    if plain is None:
        return None, []
    tracer = spans.Tracer()
    traced = run_chain(work_root / "traced", sets, args.seed, ops, tracer)
    if traced is None:
        return None, [plain]
    check_same(ops, plain, traced, "the plain and the traced run")
    metrics = layer_metrics(tracer, plain, traced)
    metrics.update(kernels.time_kernels(fresh_import(), args.seed))
    return metrics, [plain, traced]


def machine():
    """Core count, Python, numpy, BLAS and the BLAS thread count in effect."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": threads,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "full", "smoke"), default="bench")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "crossadapt" / "__init__.py").is_file():
        print(f"no crossadapt package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sets = WORKLOADS[args.workload][args.size]
    ops = Ops()
    work_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = traced_run if args.trace else timed_run
        metrics, chains = run(args, sets, work_root, ops)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    first = chains[0] if chains else {}
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "repeats": len(chains), "machine": machine(), "sha256": first.get("sha256"),
        "eer": first.get("eer"), "failures": ops.failures,
        "wall_s": [c["wall"] for c in chains],
        "normalized_s": [c["normalized"] for c in chains],
    }
    print(json.dumps({"record": record}))
    correct = metrics is not None and not ops.failures
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in (metrics or {}).items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
