"""Training objectives for the adaptation stage.

Four terms are combined into the adaptation objective:

* a cross-domain agreement penalty: mean absolute difference between the
  front-half outputs of every pair of domain subnets on the same clean
  samples, averaged over all pairs;
* a distribution match penalty: per-domain MMD between clean and in-domain
  samples measured at the subnet back-half output, summed over domains;
* per-domain speaker classification cross-entropy on in-domain samples;
* the scheduled composite ``mu * (mmd + dis) + cls`` where ``mu`` ramps from
  0 to ~1 with training progress.

Every loss has a matching analytic gradient; ``total_loss`` accumulates
gradients for all parameters it touches when handed a ``grads`` dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StructuralError
from .numkit import progressive_weight

__all__ = [
    "DomainBatch",
    "LossBreakdown",
    "discrepancy_loss",
    "discrepancy_backward",
    "median_bandwidth",
    "mmd_pair",
    "mmd_pair_backward",
    "cross_entropy_grad",
    "total_loss",
]


# -- batches ----------------------------------------------------------------


@dataclass
class DomainBatch:
    """One adaptation step's worth of samples.

    ``utts`` holds every sample, clean first and then each target domain in
    order, as a list of frame matrices or as one stack [N x L x D].
    ``labels`` holds one speaker-label array per domain, clean first; their
    lengths say where each domain's samples start. Every domain needs at
    least two samples so the unbiased MMD estimator is defined.
    """

    utts: list | np.ndarray
    labels: list

    def __post_init__(self):
        self.labels = [np.asarray(y) for y in self.labels]
        if len(self.labels) < 2:
            raise StructuralError("batch covers no target domains")
        for d, labels in enumerate(self.labels):
            if labels.ndim != 1 or len(labels) < 2:
                raise StructuralError(f"domain {d} needs at least 2 samples, one label each")
        if len(self.utts) != sum(map(len, self.labels)):
            raise StructuralError("label count does not match sample count")

    @property
    def num_domains(self) -> int:
        return len(self.labels) - 1

    def validate(self, num_speakers: int, num_domains: int) -> None:
        if self.num_domains != num_domains:
            raise StructuralError(
                f"batch covers {self.num_domains} domains, model expects {num_domains}"
            )
        for labels in self.labels:
            if labels.size and (labels.min() < 0 or labels.max() >= num_speakers):
                raise ContractError(f"speaker label outside [0, {num_speakers})")


@dataclass(frozen=True)
class LossBreakdown:
    """Component values of one adaptation objective evaluation."""

    dis: float
    mmd: float
    cls: float
    mu: float
    total: float


# -- cross-domain agreement --------------------------------------------------


def _check_fronts(fronts) -> int:
    n = len(fronts)
    if n < 2:
        raise ContractError("agreement penalty needs at least 2 domain outputs")
    shape = fronts[0].shape
    for a in fronts:
        if a.shape != shape:
            raise StructuralError("domain front outputs must share a shape")
    return n


def discrepancy_loss(fronts) -> float:
    """Mean absolute difference between all pairs of domain front outputs.

    Each entry of ``fronts`` is the same clean batch pushed through one
    domain's front half. The pair sum is scaled by 2/(N(N-1)) so the value
    is an average over pairs regardless of the domain count.
    """
    n = _check_fronts(fronts)
    coeff = 2.0 / (n * (n - 1))
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += float(np.mean(np.abs(fronts[i] - fronts[j])))
    return coeff * total


def discrepancy_backward(fronts, upstream: float = 1.0):
    """Gradients of :func:`discrepancy_loss` per domain; sign(0) taken as 0."""
    n = _check_fronts(fronts)
    scale = upstream * 2.0 / (n * (n - 1)) / fronts[0].size
    grads = [np.zeros_like(f) for f in fronts]
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sign(fronts[i] - fronts[j])
            grads[i] += scale * s
            grads[j] -= scale * s
    return grads


# -- maximum mean discrepancy -------------------------------------------------


def median_bandwidth(src, tgt) -> float:
    """Median pairwise distance of the pooled sample; 1.0 if all points tie."""
    pooled = np.vstack([np.atleast_2d(src), np.atleast_2d(tgt)])
    # only the pairs i < j, in row-major order
    i, j = np.triu_indices(len(pooled), k=1)
    diff = pooled[i] - pooled[j]
    upper = np.sqrt(np.sum(diff * diff, axis=-1))
    med = float(np.median(upper)) if upper.size else 0.0
    return med if med > 0.0 else 1.0


def _mmd_eval(src, tgt, kernel: str, bandwidth):
    """Shared forward/backward for one MMD pair. Returns (value, dsrc, dtgt)."""
    src = np.atleast_2d(np.asarray(src, dtype=np.float64))
    tgt = np.atleast_2d(np.asarray(tgt, dtype=np.float64))
    if src.shape[1] != tgt.shape[1]:
        raise StructuralError("MMD sides must share the feature dimension")
    m, n = len(src), len(tgt)
    if kernel == "linear":
        if m < 1 or n < 1:
            raise ContractError("linear MMD needs at least 1 sample per side")
        gap = src.mean(axis=0) - tgt.mean(axis=0)
        value = float(gap @ gap)
        return value, np.tile(2.0 * gap / m, (m, 1)), np.tile(-2.0 * gap / n, (n, 1))
    if kernel != "rbf":
        raise ContractError(f"unknown MMD kernel {kernel!r}")
    if m < 2 or n < 2:
        raise ContractError("unbiased RBF MMD needs at least 2 samples per side")
    if bandwidth is None:
        bandwidth = median_bandwidth(src, tgt)
    if bandwidth <= 0:
        raise ContractError("RBF bandwidth must be positive")
    inv = 1.0 / (bandwidth * bandwidth)

    def gram(a, b):
        d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-0.5 * inv * np.maximum(d2, 0.0))

    kxx = gram(src, src)
    kyy = gram(tgt, tgt)
    kxy = gram(src, tgt)
    np.fill_diagonal(kxx, 0.0)
    np.fill_diagonal(kyy, 0.0)
    # equal sizes admit the fully U-statistic form (cross diagonal excluded),
    # which is exactly zero when the two sides are the same sample
    if m == n:
        np.fill_diagonal(kxy, 0.0)
        cross_norm = 1.0 / (m * (m - 1))
    else:
        cross_norm = 1.0 / (m * n)
    sxx = 1.0 / (m * (m - 1))
    syy = 1.0 / (n * (n - 1))
    value = float(sxx * kxx.sum() + syy * kyy.sum() - 2.0 * cross_norm * kxy.sum())

    # d k(u,v) / d u = k * (v - u) / bandwidth^2; within-set pairs appear in
    # both orders, the cross sum touches each entry once from each side
    def pull(k, a, b):
        return inv * ((k @ b) - k.sum(axis=1)[:, None] * a)

    dsrc = 2.0 * sxx * pull(kxx, src, src) - 2.0 * cross_norm * pull(kxy, src, tgt)
    dtgt = 2.0 * syy * pull(kyy, tgt, tgt) - 2.0 * cross_norm * pull(kxy.T, tgt, src)
    return value, dsrc, dtgt


def mmd_pair(src, tgt, kernel: str = "linear", bandwidth=None) -> float:
    """Squared MMD between two sample sets.

    ``linear`` compares set means directly; ``rbf`` is the unbiased Gaussian
    U-statistic (within-set diagonals excluded) with ``bandwidth`` defaulting
    to the pooled median pairwise distance.
    """
    value, _, _ = _mmd_eval(src, tgt, kernel, bandwidth)
    return value


def mmd_pair_backward(src, tgt, kernel: str = "linear", bandwidth=None, upstream: float = 1.0):
    """Gradients of :func:`mmd_pair` for both sides.

    A median-heuristic bandwidth is treated as a constant of the data
    (no gradient through the bandwidth choice).
    """
    _, dsrc, dtgt = _mmd_eval(src, tgt, kernel, bandwidth)
    return upstream * dsrc, upstream * dtgt


# -- classification -----------------------------------------------------------


def cross_entropy_grad(logits, labels, upstream: float = 1.0):
    """Mean negative log softmax probability of the true class, and its
    gradient: returns ``(loss, dlogits)`` with dlogits ``(softmax - onehot) / batch``."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise StructuralError("one label per logit row required")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"label outside [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    dlogits = np.exp(shifted - logz[:, None])
    dlogits[np.arange(n), labels] -= 1.0
    return loss, upstream * dlogits / n


# -- composite ----------------------------------------------------------------


def total_loss(
    batch: DomainBatch,
    model,
    p: float,
    kernel: str = "linear",
    bandwidth=None,
    steepness: float = 10.0,
    grads=None,
    down_to_group: int = 1,
) -> LossBreakdown:
    """Scheduled adaptation objective ``mu * (mmd + dis) + cls``.

    ``p`` is training progress in [0, 1]. Pass a dict as ``grads`` to also
    accumulate analytic gradients for every parameter reached by the forward
    pass. The batch's samples, list or stack, go through one ``encode``
    call, and hold the input of trunk group ``down_to_group``: raw frames
    for 1, the frozen g1-g3 rows of each crop for 4. The trunk runs from
    that group, and its backward descends to it.

    The subnets run stacked (``Model.subnet_forward``): one pass takes the
    clean rows through all H subnets, and one pass each group of target
    domains with equal sample counts, a single group when every domain
    draws the same count.  Each result has the bits of the per-domain
    passes: every subnet tensor takes its target gradient, then its clean
    one, and the clean rows' gradient sums the domains in order.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"progress must lie in [0, 1], got {p}")
    batch.validate(model.config.num_speakers, model.config.subnet.num_domains)
    num_domains = batch.num_domains
    mu = progressive_weight(p, steepness)

    # clean rows first, then each target domain's rows in domain order
    cuts = np.cumsum([len(labels) for labels in batch.labels])[:-1]
    embs, enc_cache = model.encode(batch.utts, first_group=down_to_group)
    src_embs, *tgt_embs = np.split(embs, cuts)
    domains = range(num_domains)
    src_back, src_cache = model.subnet_forward(src_embs, domains)
    dis = discrepancy_loss(src_cache["front"])

    # one stacked pass per group of target domains with equal sample counts
    groups = {}
    for h in domains:
        groups.setdefault(len(tgt_embs[h]), []).append(h)
    tgt_passes = [(hs, *model.subnet_forward(np.stack([tgt_embs[h] for h in hs]), hs))
                  for hs in groups.values()]
    tgt_back = {h: back[i] for hs, back, _ in tgt_passes for i, h in enumerate(hs)}
    tgt_cls = {}
    mmd_vals, mmd_grads = [], []
    cls_total = 0.0
    for h in domains:
        logits, cls_cache = model.classifier_forward(tgt_back[h], h)
        ce, dlogits = cross_entropy_grad(logits, batch.labels[h + 1])
        cls_total += ce
        value, dsrc, dtgt = _mmd_eval(src_back[h], tgt_back[h], kernel, bandwidth)
        mmd_vals.append(value)
        mmd_grads.append((dsrc, dtgt))
        tgt_cls[h] = (cls_cache, dlogits)
    mmd_total = float(sum(mmd_vals))
    out = LossBreakdown(
        dis=dis, mmd=mmd_total, cls=cls_total, mu=mu, total=mu * (mmd_total + dis) + cls_total
    )
    if grads is None:
        return out

    # each subnet tensor takes its target gradient, then its clean one
    dembs = np.zeros_like(embs)
    dsrc_embs, *dtgt_embs = np.split(dembs, cuts)
    for hs, _, cache in tgt_passes:
        dback = np.stack([mu * mmd_grads[h][1] + model.classifier_backward(tgt_cls[h][1], tgt_cls[h][0], grads)
                          for h in hs])
        for h, dtgt in zip(hs, model.subnet_backward(dback, None, cache, grads)):
            dtgt_embs[h][...] = dtgt
    dis_grads = discrepancy_backward(src_cache["front"], upstream=mu)
    dsrc_back = np.stack([mu * dsrc for dsrc, _ in mmd_grads])
    dsrc_embs += model.subnet_backward(dsrc_back, np.stack(dis_grads), src_cache, grads)
    model.encode_backward(dembs, enc_cache, grads)
    return out
