"""Verification-side evaluation: embeddings, trial scores, EER, reports.

Embeddings depend on the model stage. Before adaptation the trunk pooling
output is the embedding. After adaptation each target domain uses its own
subnet, while clean utterances are embedded as the average of all subnet
outputs (the clean set has no subnet of its own). Everything is
length-normalized at the end.

Each evaluated domain takes one trunk pass: its enroll and test utterances
go through a single ``Model.encode`` call, whose pooled rows do not depend
on their batch. The subnets and the normalization then run one row at a
time, since a one-row gemm is not always bit-equal to that row of a
many-row product. So an utterance's embedding, and every report byte, is
the same as if it had been embedded alone.

EER is computed over operating points only (threshold sweep at score
midpoints), with linear interpolation between the two bracketing points
when no threshold hits FAR = FRR exactly; the result therefore depends only
on the ranking of scores, never their scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest, read_features
from .errors import ContractError, FileFormatError, StructuralError, UnknownDomainError
from .fileio import write_artifact
from .model import STAGES

__all__ = [
    "ScoreRecord",
    "DomainEval",
    "EvalReport",
    "embed_utterances",
    "enroll_speaker",
    "score_trials",
    "equal_error_rate",
    "compute_eer",
    "relative_decrease",
    "compare_domains",
    "evaluate_domain",
    "evaluate_model",
    "write_report",
    "read_report",
    "format_table",
]


# -- embeddings ---------------------------------------------------------------


def _normalize(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm <= 0.0 or not np.isfinite(norm):
        raise ContractError("cannot length-normalize a zero embedding")
    return vec / norm


def embed_utterances(features_list, model, stage: str, domain_id: int) -> np.ndarray:
    """Length-normalized embeddings [N x E] of utterances under a model stage.

    ``domain_id`` follows the corpus convention: 0 is clean, h >= 1 maps to
    subnet h-1. Clean utterances under an adapted model are embedded as the
    mean of all subnet outputs before normalization.

    The trunk runs once over the whole list; subnets and normalization run
    one row at a time, so each row is bit-equal to that utterance embedded
    alone (see the module docstring).
    """
    if stage not in STAGES:
        raise ContractError(f"unknown model stage {stage!r}")
    num_targets = model.config.subnet.num_domains
    if not 0 <= domain_id <= num_targets:
        raise UnknownDomainError(
            f"domain {domain_id} outside configured range 0..{num_targets}"
        )
    if len(features_list) == 0:
        raise ContractError("no utterances to embed")
    embs, _ = model.encode(features_list, mode="eval")
    if stage == "adapt":
        subnets = [domain_id - 1] if domain_id > 0 else range(num_targets)
        embs = [
            np.mean([model.subnet_forward(emb, h, mode="eval")[0][0] for h in subnets], axis=0)
            for emb in embs
        ]
    return np.array([_normalize(emb) for emb in embs])


def enroll_speaker(embeddings) -> np.ndarray:
    """Speaker model: mean of enrollment embeddings, length-normalized."""
    if len(embeddings) == 0:
        raise ContractError("enrollment needs at least one embedding")
    return _normalize(np.mean(np.asarray(embeddings, dtype=np.float64), axis=0))


# -- scoring ------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreRecord:
    """One scored trial; evaluation itself scores whole domains as arrays."""

    trial: object
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score) or abs(self.score) > 1.0 + 1e-9:
            raise ContractError(f"trial score {self.score} outside [-1, 1]")


def score_trials(models, tests, model_rows) -> np.ndarray:
    """Cosine scores of all trials, flat and enroll-major.

    ``models`` is [S x E] and ``tests`` [N x E]; entry ``i * N + j`` scores
    ``models[model_rows[i]]`` against ``tests[j]``. One gemm covers the
    distinct rows of each side, so within one call trials that share a
    model or an identical embedding score exactly alike. Across calls a
    score can differ in its last bits: the gemm reads ``tests.T``, a
    transposed view, and for small products OpenBLAS 0.3.31 then takes
    another kernel, whose rows depend on the rest of the product. So the
    same pair can score a few ulps apart in domains of different size.
    """
    models = np.asarray(models, dtype=np.float64)
    tests = np.asarray(tests, dtype=np.float64)
    model_rows = np.asarray(model_rows, dtype=np.intp)
    if models.ndim != 2 or tests.ndim != 2 or models.shape[1] != tests.shape[1]:
        raise StructuralError(f"cannot score {models.shape} models against {tests.shape} tests")
    if model_rows.ndim != 1 or np.any((model_rows < 0) | (model_rows >= len(models))):
        raise StructuralError(f"trial rows must index the {len(models)} speaker models")
    models, m_idx = np.unique(models, axis=0, return_inverse=True)
    tests, t_idx = np.unique(tests, axis=0, return_inverse=True)
    m_norm, t_norm = np.linalg.norm(models, axis=1), np.linalg.norm(tests, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores = models @ tests.T / np.outer(m_norm, t_norm)
    # a zero or non-finite vector leaves a non-finite score
    if not np.all(np.isfinite(scores)) or np.any(np.abs(scores) > 1.0 + 1e-9):
        raise ContractError("trial scores must be finite and within [-1, 1]")
    return scores[m_idx.reshape(-1)[model_rows]][:, t_idx.reshape(-1)].reshape(-1)


def equal_error_rate(target_scores, nontarget_scores):
    """Equal error rate and its threshold from target and nontarget scores.

    Thresholds sweep the midpoints between adjacent distinct scores (plus
    sentinels past both ends); FAR counts nontargets at or above the
    threshold, FRR targets below it. When no operating point has
    FAR = FRR, the two bracketing points are joined linearly and the
    crossing value is returned; ties resolve to the lowest threshold.
    """
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ContractError("EER needs at least one target and one nontarget trial")
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate(
        [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]]
    )
    # counts below each threshold, taken by position: the midpoint of two
    # scores one ulp apart rounds onto one of them, so comparing with it would
    # lose that operating point. FAR falls and FRR rises as the sweep goes up
    far = 1.0 - np.append(np.searchsorted(non, distinct, side="left"), non.size) / non.size
    frr = np.append(np.searchsorted(tar, distinct, side="left"), tar.size) / tar.size
    diff = far - frr
    j = int(np.argmax(diff <= 0.0))
    if diff[j] == 0.0:
        return float(far[j]), float(thresholds[j])
    f1, r1, f2, r2 = far[j - 1], frr[j - 1], far[j], frr[j]
    t = (f1 - r1) / ((f1 - r1) - (f2 - r2))
    eer = f1 + t * (f2 - f1)
    return float(eer), float(thresholds[j - 1] + t * (thresholds[j] - thresholds[j - 1]))


def compute_eer(records):
    """``equal_error_rate`` over ``ScoreRecord``s."""
    tar = [r.score for r in records if r.trial.is_target]
    return equal_error_rate(tar, [r.score for r in records if not r.trial.is_target])


def relative_decrease(baseline_eer: float, new_eer: float) -> float:
    """Percent EER reduction relative to a baseline; negative on regression."""
    if baseline_eer <= 0.0:
        raise ContractError("relative decrease undefined for baseline EER 0")
    return 100.0 * (baseline_eer - new_eer) / baseline_eer


# -- per-domain evaluation ------------------------------------------------------


@dataclass(frozen=True)
class DomainEval:
    domain_id: int
    eer: float
    n_trials: int
    n_targets: int

    def __post_init__(self):
        if not 0.0 <= self.eer <= 1.0:
            raise ContractError(f"EER {self.eer} outside [0, 1]")


@dataclass
class EvalReport:
    checkpoint: str
    stage: str
    domains: list = field(default_factory=list)

    def by_domain(self) -> dict:
        return {d.domain_id: d for d in self.domains}


def evaluate_domain(model, stage, manifest: CorpusManifest, root, domain_id):
    """Score one domain's exhaustive enroll x test trials and report its EER.

    Trials run enroll-major in utterance-id order; each enroll utterance
    stands for its speaker's model, the normalized mean of the speaker's
    enroll embeddings taken in manifest order.
    """
    if not 0 <= domain_id < manifest.num_domains:
        raise UnknownDomainError(f"domain {domain_id} not present in manifest")
    enroll = manifest.select(domain_id, "enroll")
    test = sorted(manifest.select(domain_id, "test"), key=lambda r: r.utt_id)
    if not enroll or not test:
        raise ContractError(f"domain {domain_id} lacks enroll or test utterances")
    root = Path(root)
    # one trunk pass over the domain; each file is read once
    embs = embed_utterances([read_features(root / r.relpath) for r in enroll + test],
                            model, stage, domain_id)

    by_speaker = {}
    for r, emb in zip(enroll, embs):
        by_speaker.setdefault(r.speaker_id, []).append(emb)
    models = np.array([enroll_speaker(group) for group in by_speaker.values()])
    row_of = {s: i for i, s in enumerate(by_speaker)}
    trial_enroll = sorted(enroll, key=lambda r: r.utt_id)
    rows = [row_of[r.speaker_id] for r in trial_enroll]
    scores = score_trials(models, embs[len(enroll):], rows)
    is_target = np.equal.outer(
        [r.speaker_id for r in trial_enroll], [r.speaker_id for r in test]
    ).reshape(-1)
    eer, _ = equal_error_rate(scores[is_target], scores[~is_target])
    return DomainEval(domain_id, eer, scores.size, int(is_target.sum()))


def evaluate_model(model, stage, manifest, root, checkpoint_id: str) -> EvalReport:
    """Evaluate every domain in the manifest under one model."""
    domains = [evaluate_domain(model, stage, manifest, root, d) for d in range(manifest.num_domains)]
    return EvalReport(checkpoint_id, stage, domains)


# -- report files -----------------------------------------------------------------


def write_report(path, report: EvalReport) -> None:
    lines = [f"checkpoint={report.checkpoint} stage={report.stage}\n"]
    for d in sorted(report.domains, key=lambda d: d.domain_id):
        lines.append(f"domain=d{d.domain_id} eer={d.eer:.10g} trials={d.n_trials} targets={d.n_targets}\n")
    write_artifact(path, "".join(lines).encode("utf-8"), "evaluation report")


def read_report(path) -> EvalReport:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read evaluation report {path}: {exc}") from exc
    if not lines or not lines[0].startswith("checkpoint="):
        raise FileFormatError(f"{path} is not an evaluation report")
    try:
        head = dict(tok.split("=", 1) for tok in lines[0].split())
    except ValueError as exc:
        raise FileFormatError(f"malformed report header: {lines[0]!r}") from exc
    domains = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        try:
            kv = dict(tok.split("=", 1) for tok in ln.split())
            domains.append(
                DomainEval(int(kv["domain"].lstrip("d")), float(kv["eer"]),
                           int(kv["trials"]), int(kv["targets"]))
            )
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"malformed report line: {ln!r}") from exc
    return EvalReport(head["checkpoint"], head.get("stage", "?"), domains)


def compare_domains(new: EvalReport, baseline: EvalReport):
    """``(domain_id, baseline EER, new EER, RD)`` per domain in id order; RD
    is None where the baseline EER is 0."""
    new_by, base_by = new.by_domain(), baseline.by_domain()
    if set(base_by) != set(new_by):
        raise ContractError("baseline and new reports cover different domains")
    rows = []
    for d in sorted(new_by):
        base, eer = base_by[d].eer, new_by[d].eer
        rows.append((d, base, eer, relative_decrease(base, eer) if base > 0 else None))
    return rows


def format_table(new: EvalReport, baseline: EvalReport = None) -> str:
    """Per-domain EER table, with baseline and RD rows when supplied."""
    new_by = new.by_domain()
    header = ["system"] + [f"d{d}" for d in sorted(new_by)]
    if baseline is None:
        rows = [[new.checkpoint] + [f"{100 * new_by[d].eer:.2f}%" for d in sorted(new_by)]]
    else:
        cmp = compare_domains(new, baseline)
        rows = [
            [f"baseline ({baseline.checkpoint})"] + [f"{100 * base:.2f}%" for _, base, _, _ in cmp],
            [f"adapted ({new.checkpoint})"] + [f"{100 * eer:.2f}%" for _, _, eer, _ in cmp],
            ["RD"] + ["n/a" if rd is None else f"{rd:.2f}%" for *_, rd in cmp],
        ]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
    out += [fmt.format(*r) for r in rows]
    return "\n".join(out) + "\n"
