"""Verification-side evaluation: embeddings, trial scores, EER, reports.

Embeddings depend on the model stage. Before adaptation the trunk pooling
output is the embedding. After adaptation each target domain uses its own
subnet, while clean utterances are embedded as the average of all subnet
outputs (the clean set has no subnet of its own). Everything is
length-normalized at the end.

EER is computed over operating points only (threshold sweep at score
midpoints), with linear interpolation between the two bracketing points
when no threshold hits FAR = FRR exactly; the result therefore depends only
on the ranking of scores, never their scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest, make_trials, read_features
from .errors import ContractError, FileFormatError, StructuralError, UnknownDomainError
from .model import STAGES

__all__ = [
    "ScoreRecord",
    "DomainEval",
    "EvalReport",
    "embed_utterance",
    "cosine_score",
    "enroll_speaker",
    "score_trials",
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


def embed_utterance(features, model, stage: str, domain_id: int) -> np.ndarray:
    """Length-normalized utterance embedding under the given model stage.

    ``domain_id`` follows the corpus convention: 0 is clean, h >= 1 maps to
    subnet h-1. Clean utterances under an adapted model are embedded as the
    mean of all subnet outputs before normalization.
    """
    if stage not in STAGES:
        raise ContractError(f"unknown model stage {stage!r}")
    num_targets = model.config.subnet.num_domains
    if not 0 <= domain_id <= num_targets:
        raise UnknownDomainError(
            f"domain {domain_id} outside configured range 0..{num_targets}"
        )
    emb, _ = model.encode(features, mode="eval")
    if stage != "adapt":
        return _normalize(emb)
    if domain_id > 0:
        out, _ = model.subnet_forward(emb, domain_id - 1, "full", mode="eval")
        return _normalize(out[0])
    outs = [model.subnet_forward(emb, h, "full", mode="eval")[0][0] for h in range(num_targets)]
    return _normalize(np.mean(outs, axis=0))


def cosine_score(e1, e2) -> float:
    """Cosine of the angle between two nonzero vectors."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
    if n1 <= 0.0 or n2 <= 0.0:
        raise ContractError("cosine score undefined for zero vectors")
    return float(e1 @ e2 / (n1 * n2))


def enroll_speaker(embeddings) -> np.ndarray:
    """Speaker model: mean of enrollment embeddings, length-normalized."""
    if len(embeddings) == 0:
        raise ContractError("enrollment needs at least one embedding")
    return _normalize(np.mean(np.asarray(embeddings, dtype=np.float64), axis=0))


# -- scoring ------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreRecord:
    trial: object
    score: float

    def __post_init__(self):
        if not np.isfinite(self.score) or abs(self.score) > 1.0 + 1e-9:
            raise ContractError(f"trial score {self.score} outside [-1, 1]")


def score_trials(trials, enroll_vectors: dict, test_vectors: dict):
    """Cosine-score every trial; vectors are keyed by utterance id."""
    records = []
    for tr in trials:
        if tr.enroll_utt not in enroll_vectors:
            raise StructuralError(f"no enrollment vector for {tr.enroll_utt}")
        if tr.test_utt not in test_vectors:
            raise StructuralError(f"no test embedding for {tr.test_utt}")
        records.append(
            ScoreRecord(tr, cosine_score(enroll_vectors[tr.enroll_utt], test_vectors[tr.test_utt]))
        )
    return records


def compute_eer(records):
    """Equal error rate and its threshold from scored trials.

    Thresholds sweep the midpoints between adjacent distinct scores (plus
    sentinels past both ends); FAR counts nontargets at or above the
    threshold, FRR targets below it. When no operating point has
    FAR = FRR, the two bracketing points are joined linearly and the
    crossing value is returned; ties resolve to the lowest threshold.
    """
    tar = np.sort([r.score for r in records if r.trial.is_target])
    non = np.sort([r.score for r in records if not r.trial.is_target])
    if tar.size == 0 or non.size == 0:
        raise ContractError("EER needs at least one target and one nontarget trial")
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate(
        [[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0]]
    )
    # counts below each threshold; FAR falls and FRR rises as it sweeps up
    far = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    diff = far - frr
    j = int(np.argmax(diff <= 0.0))
    if diff[j] == 0.0:
        return float(far[j]), float(thresholds[j])
    f1, r1, f2, r2 = far[j - 1], frr[j - 1], far[j], frr[j]
    t = (f1 - r1) / ((f1 - r1) - (f2 - r2))
    eer = f1 + t * (f2 - f1)
    return float(eer), float(thresholds[j - 1] + t * (thresholds[j] - thresholds[j - 1]))


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


def evaluate_domain(model, stage, manifest: CorpusManifest, root, domain_id, trials=None):
    """Score one domain's exhaustive trials and report its EER."""
    if trials is None:
        trials = make_trials(manifest, domain_id)
    root = Path(root)

    def embed_records(records):
        return {
            r.utt_id: embed_utterance(read_features(root / r.relpath), model, stage, domain_id)
            for r in records
        }

    enroll_records = manifest.select(domain_id, "enroll")
    test_vectors = embed_records(manifest.select(domain_id, "test"))
    enroll_embs = embed_records(enroll_records)
    by_speaker = {}
    for r in enroll_records:
        by_speaker.setdefault(r.speaker_id, []).append(enroll_embs[r.utt_id])
    models = {s: enroll_speaker(embs) for s, embs in by_speaker.items()}
    enroll_vectors = {r.utt_id: models[r.speaker_id] for r in enroll_records}
    records = score_trials(trials, enroll_vectors, test_vectors)
    eer, _ = compute_eer(records)
    return DomainEval(domain_id, eer, len(records), sum(r.trial.is_target for r in records))


def evaluate_model(model, stage, manifest, root, checkpoint_id: str) -> EvalReport:
    """Evaluate every domain in the manifest under one model."""
    domains = [evaluate_domain(model, stage, manifest, root, d) for d in range(manifest.num_domains)]
    return EvalReport(checkpoint_id, stage, domains)


# -- report files -----------------------------------------------------------------


def write_report(path, report: EvalReport) -> None:
    lines = [f"checkpoint={report.checkpoint} stage={report.stage}\n"]
    for d in sorted(report.domains, key=lambda d: d.domain_id):
        lines.append(f"domain=d{d.domain_id} eer={d.eer:.10g} trials={d.n_trials} targets={d.n_targets}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


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
