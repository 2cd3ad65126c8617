"""The embedding network and its checkpoint format.

Architecture: a shared trunk made of four freeze-controllable dense layer
groups with symmetric temporal context (edge-replicated), followed by a
learnable-dictionary pooling layer that turns a variable-length frame
sequence into a fixed utterance embedding.  On top of the trunk sit a
single softmax head (used before adaptation) and, once materialized, one
four-layer subnet plus one classifier per target domain.  Each subnet
splits into a ``front`` half (where per-domain agreement is encouraged)
and a ``back`` half (the alignment/embedding space).

``Model.encode`` is the one trunk entry point.  It groups utterances by
frame count.  In training it runs the extractor once per group, all of a
batch's crops as one stack [N, L, D] with one gemm per layer group, and in
evaluation once per utterance.  Each group is pooled with one stacked
``lde_pool`` call, in matrix form with no [T, K, D] tensor.  A canonical
frame order makes each pooled row exactly invariant to the order of its
frames and to its batch, and a clamp keeps expanded distances non-negative.

The stack changes no bit.  Each crop's rows equal its own product's rows
wherever a product row's bits do not depend on the other rows, and the
stack's weight grads are each crop's own product summed over the crops in
order, as adding them crop by crop did.  ``_stacks_exactly`` checks the row
fact per group shape, for the forward ``x @ W`` and for the input gradient
``dpre @ W.T``; shapes that fail it, and crops under 8 frames, run crop by
crop through the same code.

The trunk entry points take the first group to run.  Finetune and adapt
freeze g1-g3, so they feed g4 with each crop's g3 rows from a
``FrozenPrefix``: middle rows from a per-utterance table of g1-g3, the R
edge rows at each end (R the summed g1-g3 context) from one stacked pass
over every crop's 2R-frame end windows.  A stage builds the table only
when the crop frames it saves outnumber the frames it costs (pipeline).
Only the edge rows see the crop's replicated edges, so the rows equal
running the crop whole, bit for bit, under the same row fact.

All forward passes return caches sufficient for exact hand-derived
backprop; the tests check every backward here against central differences.
"""

import functools
import hashlib
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ContractError,
    FileFormatError,
    FingerprintMismatchError,
    NumericError,
    StructuralError,
    UnknownDomainError,
)
from .fileio import open_artifact, read_exact, write_artifact
from .numkit import ParamGroup
from .rng import substream

CHECKPOINT_MAGIC = b"XDCK"
CHECKPOINT_VERSION = 1
STAGES = ("pretrain", "finetune", "adapt")
_STAGE_BYTE = {name: i for i, name in enumerate(STAGES)}

NUM_GROUPS = 4
FROZEN_GROUPS = 3  # finetune and adapt freeze g1-g3 (set_trainable)
_ARCH_TENSOR = "arch"
_ARCH_LEN = 17


@dataclass(frozen=True)
class ExtractorConfig:
    """Shared trunk: four dense layer groups over spliced frame context."""

    input_dim: int
    group_dims: tuple
    context: tuple

    def __post_init__(self):
        if len(self.group_dims) != NUM_GROUPS or len(self.context) != NUM_GROUPS:
            raise ContractError("extractor needs exactly four layer groups")
        if self.input_dim < 1 or any(d < 1 for d in self.group_dims):
            raise ContractError("all extractor dims must be positive")
        if any(c < 0 for c in self.context):
            raise ContractError("context widths must be nonnegative")


@dataclass(frozen=True)
class LdeConfig:
    """Dictionary pooling: soft assignment of frames to learnable components."""

    num_components: int
    component_dim: int

    def __post_init__(self):
        if self.num_components < 1 or self.component_dim < 1:
            raise ContractError("dictionary sizes must be positive")

    @property
    def output_dim(self) -> int:
        return self.num_components * self.component_dim


@dataclass(frozen=True)
class SubnetConfig:
    """Per-domain adaptation block: two front layers + two back layers."""

    front_dims: tuple
    back_dims: tuple
    num_domains: int

    def __post_init__(self):
        if len(self.front_dims) != 2 or len(self.back_dims) != 2:
            raise ContractError("subnets have exactly two front and two back layers")
        if self.num_domains < 2:
            raise ContractError("cross-domain adaptation needs at least two target domains")

    @property
    def embedding_dim(self) -> int:
        return self.back_dims[1]


@dataclass(frozen=True)
class ModelConfig:
    extractor: ExtractorConfig
    lde: LdeConfig
    subnet: SubnetConfig
    num_speakers: int

    def __post_init__(self):
        if self.num_speakers < 2:
            raise ContractError("need at least two speakers to classify")
        if self.lde.component_dim != self.extractor.group_dims[-1]:
            raise ContractError("dictionary component_dim must equal the last group width")

    def canonical_text(self) -> str:
        ex, ld, sn = self.extractor, self.lde, self.subnet
        lines = [
            "back_dims=%s" % ",".join(map(str, sn.back_dims)),
            "context=%s" % ",".join(map(str, ex.context)),
            "front_dims=%s" % ",".join(map(str, sn.front_dims)),
            "group_dims=%s" % ",".join(map(str, ex.group_dims)),
            "input_dim=%d" % ex.input_dim,
            "lde_components=%d" % ld.num_components,
            "num_domains=%d" % sn.num_domains,
            "num_speakers=%d" % self.num_speakers,
        ]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> bytes:
        return hashlib.blake2b(self.canonical_text().encode("utf-8"), digest_size=16).digest()


def _arch_vector(config: ModelConfig) -> np.ndarray:
    ex, ld, sn = config.extractor, config.lde, config.subnet
    vals = [1, ex.input_dim, *ex.group_dims, *ex.context, ld.num_components,
            *sn.front_dims, *sn.back_dims, sn.num_domains, config.num_speakers]
    assert len(vals) == _ARCH_LEN
    return np.array(vals, dtype=np.float64)


def _config_from_arch(vec: np.ndarray) -> ModelConfig:
    if vec.shape != (_ARCH_LEN,):
        raise FileFormatError("malformed architecture record in checkpoint")
    if not np.all(np.isfinite(vec) & (vec == np.round(vec))):
        raise FileFormatError("architecture record in checkpoint holds a non-integral entry")
    vals = [int(v) for v in vec]
    if vals[0] != 1:
        raise BadVersionError(f"unsupported architecture record version {vals[0]}")
    return ModelConfig(
        extractor=ExtractorConfig(vals[1], tuple(vals[2:6]), tuple(vals[6:10])),
        lde=LdeConfig(vals[10], vals[5]),
        subnet=SubnetConfig(tuple(vals[11:13]), tuple(vals[13:15]), vals[15]),
        num_speakers=vals[16],
    )


# ---------------------------------------------------------------------------
# layer primitives (forward returns a cache, backward consumes it)

@functools.lru_cache(maxsize=64)
def _context_index(t: int, context: int) -> np.ndarray:
    """Source row of each spliced slot [t x 2c+1], edges replicated.  Every
    caller with the same shape shares the array, so it is read-only."""
    idx = np.clip(np.arange(t)[:, None] + np.arange(-context, context + 1)[None, :], 0, t - 1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _scatter_index(n: int, t: int, context: int, d: int) -> np.ndarray:
    """Flat position in the [n x t x d] input of each spliced value, in
    (window, t, j, d) order: each window scatters into its own rows."""
    flat = (_context_index(t, context)[:, :, None] * d + np.arange(d)).ravel()
    flat = (np.arange(n)[:, None] * (t * d) + flat).ravel()
    flat.flags.writeable = False
    return flat


def splice_forward(x, context: int):
    """Stack each frame of ``x`` [T, D] with +-context neighbours, replicating
    edges; each window of a stack [N, T, D] is spliced on its own."""
    t = x.shape[-2]
    if context == 0:
        return x, (x.shape, None)
    idx = _context_index(t, context)
    spliced = x[idx] if x.ndim == 2 else x[:, idx]
    return spliced.reshape(x.shape[:-1] + (-1,)), (x.shape, idx)


def splice_backward(dy, cache):
    """Gradient of ``splice_forward``, shaped like its input; ``dy`` may
    hold the spliced rows of a stack flattened to [N*T, (2c+1)*D]."""
    shape, idx = cache
    if idx is None:
        return dy.reshape(shape)
    # bincount adds each input value's slots from 0.0 in (t, j, d) order, the
    # order np.add.at uses, so the sums are bit-identical to a scatter-add; a
    # per-window offset keeps every window's sums apart
    n, t, d = (1, *shape) if len(shape) == 2 else shape
    flat = _scatter_index(n, t, idx.shape[1] // 2, d)
    return np.bincount(flat, weights=dy.ravel(), minlength=n * t * d).reshape(shape)


def affine_forward(x, w, b):
    return x @ w + b, (x, w)


def affine_backward(dy, cache):
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def relu_forward(x):
    y = np.maximum(x, 0.0)
    return y, y


def relu_backward(dy, cache):
    return dy * (cache > 0.0)


def lde_pool(frames, dictionary, log_scale):
    """Pool frames [..., T, D] into embeddings [..., K*D] by soft assignment.

    Each frame is softly assigned to dictionary components with weights
    softmax_k(-s_k * ||f_t - d_k||^2), s_k = exp(log_scale_k); component k
    aggregates the weighted mean residual (f_t - d_k).  Leading axes stack
    utterances of equal length; each is pooled on its own.

    The frames of each utterance are first put in a canonical order, a stable
    sort of their rows' bytes.  Every sum over frames then sees the same
    summands in the same order whatever order the frames came in, so the
    result is exactly (bitwise) permutation-invariant.  Distances use the
    expansion ``|f|^2 - 2 f.d + |d|^2``, which needs no [T,K,D] residual
    tensor but cancels to a rounding error of either sign when a frame sits
    on a component; clamping at 0 keeps every distance non-negative.
    """
    rows = np.ascontiguousarray(frames, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ContractError("dictionary pooling needs at least one frame")
    if rows.shape[-1] != dictionary.shape[1]:
        raise StructuralError("frame dim does not match dictionary component dim")
    t, d = rows.shape[-2:]
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * d)))[..., 0], axis=-1, kind="stable")
    # flat row of each canonical frame, so one take gathers every utterance
    order = (order + t * np.arange(order.size // t).reshape(*order.shape[:-1], 1)).reshape(-1)
    f = np.take(rows.reshape(-1, d), order, axis=0).reshape(rows.shape)
    s = np.exp(log_scale)
    sqdist = np.einsum("...td,...td->...t", f, f)[..., None] - 2.0 * (f @ dictionary.T)
    sqdist += np.einsum("kd,kd->k", dictionary, dictionary)
    np.maximum(sqdist, 0.0, out=sqdist)
    logits = -s * sqdist
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    # per-row softmax is strictly positive, but a component every frame is far
    # from can underflow to 0 mass; floor it so starved components pool to ~0
    msum = w.sum(axis=-2)  # [..., K]
    mass = np.maximum(msum, np.finfo(np.float64).tiny)
    # normalized per-component weights (each column sums to 1, or to 0 for a
    # fully starved component); backward works in this scale so that 1/mass
    # never appears as a bare factor that could overflow
    u = w / mass[..., None, :]
    usum = msum / mass  # the column sums of u, in closed form
    agg = np.swapaxes(u, -1, -2) @ f - usum[..., None] * dictionary  # [..., K, D]
    cache = (order, f, dictionary, sqdist, w, u, usum, agg, s)
    return agg.reshape(*agg.shape[:-2], -1), cache


def lde_pool_backward(dout, cache):
    """Gradients of the pooled embeddings [..., K*D] w.r.t. frames [..., T, D],
    dictionary and log_scale, the last two summed over the stacked utterances."""
    order, f, dictionary, sqdist, w, u, usum, agg, s = cache
    de = dout.reshape(agg.shape)  # [..., K, D]
    # weight gradient de_k . (f_t - d_k - agg_k) combines the numerator and the
    # normalizing-mass paths; the mass division is folded into u so starved
    # components get gradient 0
    gw = f @ np.swapaxes(de, -1, -2) - np.einsum("...kd,...kd->...k", de, dictionary + agg)[..., None, :]
    ug = u * gw
    gl = ug - w * ug.sum(axis=-1, keepdims=True)  # softmax backward per frame
    a = 2.0 * s * gl  # gradient of the residual f_t - d_k is u de_k - a (f_t - d_k)
    k, d = dictionary.shape
    dlog_scale = -s * (gl * sqdist).reshape(-1, k).sum(axis=0)
    ddict = np.swapaxes(a, -1, -2) @ f - a.sum(axis=-2)[..., None] * dictionary - usum[..., None] * de
    ddict = ddict.reshape(-1, k, d).sum(axis=0)
    dsorted = u @ de + a @ dictionary - a.sum(axis=-1, keepdims=True) * f
    dframes = np.empty((order.size, d))
    dframes[order] = dsorted.reshape(-1, d)
    return dframes.reshape(f.shape), ddict, dlog_scale


# ---------------------------------------------------------------------------

def _he_uniform(rng, fan_in, shape):
    limit = np.sqrt(6.0 / fan_in)
    # quantize to float32 so fresh models round-trip checkpoints bit-exactly
    return rng.uniform(-limit, limit, size=shape).astype(np.float32).astype(np.float64)


class Model:
    """Parameter container plus hand-differentiated forward/backward passes.

    Parameters live in ``self.params`` as float64 arrays under hierarchical
    names (``g1.W`` .. ``g4.b``, ``lde.dict``, ``lde.log_scale``, ``head.*``,
    ``sub{h}.*``, ``cls{h}.*``).  Subnets and per-domain classifiers exist
    only after ``ensure_subnets`` (they are trained from scratch during
    adaptation).
    """

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.params = params

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, config: ModelConfig, seed: int, with_subnets: bool = False) -> "Model":
        params = {}
        ex = config.extractor
        in_dim = ex.input_dim
        for g in range(NUM_GROUPS):
            name = f"g{g + 1}"
            fan_in = (2 * ex.context[g] + 1) * in_dim
            params[f"{name}.W"] = _he_uniform(substream(seed, "init", name), fan_in, (fan_in, ex.group_dims[g]))
            params[f"{name}.b"] = np.zeros(ex.group_dims[g])
            in_dim = ex.group_dims[g]
        k, d = config.lde.num_components, config.lde.component_dim
        params["lde.dict"] = (
            substream(seed, "init", "lde").normal(size=(k, d)).astype(np.float32).astype(np.float64)
        )
        params["lde.log_scale"] = np.zeros(k)
        emb = config.lde.output_dim
        params["head.W"] = _he_uniform(substream(seed, "init", "head"), emb, (emb, config.num_speakers))
        params["head.b"] = np.zeros(config.num_speakers)
        model = cls(config, params)
        if with_subnets:
            model.ensure_subnets(seed)
        return model

    def ensure_subnets(self, seed: int) -> None:
        """Materialize per-domain subnets and classifiers (no-op if present).

        One random draw is shared by all domains: subnets start parameter-wise
        identical and only diverge through their own domain's gradients, so the
        early discrepancy/alignment losses are exactly zero rather than noise
        between unrelated random maps.
        """
        if self.has_subnets:
            return
        cfg = self.config.subnet
        in_dim = self.config.lde.output_dim
        dims = [in_dim, *cfg.front_dims, *cfg.back_dims]
        halves = ["front.0", "front.1", "back.0", "back.1"]
        for layer, (d_in, d_out) in zip(halves, zip(dims[:-1], dims[1:])):
            rng = substream(seed, "init", f"sub.{layer}")
            w = _he_uniform(rng, d_in, (d_in, d_out))
            for h in range(cfg.num_domains):
                self.params[f"sub{h}.{layer}.W"] = w.copy()
                self.params[f"sub{h}.{layer}.b"] = np.zeros(d_out)
        rng = substream(seed, "init", "cls")
        w = _he_uniform(rng, cfg.embedding_dim, (cfg.embedding_dim, self.config.num_speakers))
        for h in range(cfg.num_domains):
            self.params[f"cls{h}.W"] = w.copy()
            self.params[f"cls{h}.b"] = np.zeros(self.config.num_speakers)

    @property
    def has_subnets(self) -> bool:
        return "sub0.front.0.W" in self.params

    def group_names(self):
        names = [f"g{i + 1}" for i in range(NUM_GROUPS)] + ["lde", "head"]
        if self.has_subnets:
            for h in range(self.config.subnet.num_domains):
                names += [f"sub{h}", f"cls{h}"]
        return names

    def tensors_of_group(self, group: str) -> dict:
        if group == "lde":
            return {"lde.dict": self.params["lde.dict"], "lde.log_scale": self.params["lde.log_scale"]}
        prefix = group + "."
        found = {n: p for n, p in self.params.items() if n.startswith(prefix)}
        if not found:
            raise StructuralError(f"no parameters under group {group}")
        return found

    # -- trunk ------------------------------------------------------------

    def extractor_forward(self, x, mode: str = "train", first_group: int = 1):
        """Run frames [T x D], or a stack of windows [N x T x D], through
        groups ``first_group``..4; the shape is preserved but for D.

        A 2-D input is a stack of one.  D is the input width of
        ``first_group``: the input dim for group 1, else the width of the
        group below.  A stage whose lower groups are frozen feeds their
        output here (see ``FrozenPrefix``), so the train caches, and the
        backward, cover only the groups that train.
        """
        ex = self.config.extractor
        if not 1 <= first_group <= NUM_GROUPS:
            raise ContractError(f"first group must lie in 1..{NUM_GROUPS}, got {first_group}")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3) or min(x.shape[:-1]) < 1:
            raise StructuralError("extractor input must be a nonempty [T x D] matrix or [N x T x D] stack")
        in_dim = ex.input_dim if first_group == 1 else ex.group_dims[first_group - 2]
        if x.shape[-1] != in_dim:
            raise StructuralError(f"group g{first_group} expects feature dim {in_dim}, got {x.shape[-1]}")
        return self._groups_forward(x, first_group, NUM_GROUPS, mode)

    def _groups_forward(self, h, first: int, last: int, mode: str):
        """The one group loop: groups ``first``..``last`` over frames [T, D]
        or a stack of windows [N, T, D].

        Each window is spliced on its own, then one gemm per group covers
        the rows of every window.  Returns the output and, in train mode,
        one cache per group run.
        """
        caches = [] if mode == "train" else None
        stacked = h.ndim == 3
        for g in range(first - 1, last):
            spliced, sp_cache = splice_forward(h, self.config.extractor.context[g])
            rows = spliced.reshape(-1, spliced.shape[-1]) if stacked else spliced
            pre, af_cache = affine_forward(rows, self.params[f"g{g + 1}.W"], self.params[f"g{g + 1}.b"])
            out, relu_cache = relu_forward(pre)
            h = out.reshape(h.shape[:-1] + (-1,)) if stacked else out
            if mode == "train":
                caches.append((sp_cache, af_cache, relu_cache))
        return h, caches

    def extractor_backward(self, dh, caches, grads):
        """Accumulate the parameter grads of every group the forward ran;
        ``dh`` is the gradient of the forward's output, of its shape.

        A stack's weight and bias grads are each window's own product
        (a batched ``x.T @ dpre``) summed over the windows in order, so they
        are bit-equal to running the windows one by one and adding each
        one's grads in turn (tests/test_blas_rows.py).
        """
        first = NUM_GROUPS - len(caches)  # index of the lowest group run
        for g in range(NUM_GROUPS - 1, first - 1, -1):
            sp_cache, (x, w), relu_cache = caches[g - first]
            dpre = relu_backward(dh.reshape(relu_cache.shape), relu_cache)
            windows = sp_cache[0][:-1]  # (T,) or (N, T)
            dw = np.swapaxes(x.reshape(windows + (-1,)), -1, -2) @ dpre.reshape(windows + (-1,))
            db = dpre.reshape(windows + (-1,)).sum(axis=-2)
            if len(windows) == 2:
                dw, db = dw.sum(axis=0), db.sum(axis=0)
            _accum(grads, f"g{g + 1}.W", dw)
            _accum(grads, f"g{g + 1}.b", db)
            # the input gradient of the lowest group run is never used
            if g > first:
                dh = splice_backward(dpre @ w.T, sp_cache)

    def encode(self, utts, mode: str = "train", first_group: int = 1):
        """Trunk pass over frame matrices -> embeddings [N x K*D].

        ``utts`` is a list of frame matrices or a stack [N x T x D].  They
        are grouped by frame count.  In train mode the extractor runs from
        ``first_group`` once per group, as one stack, when that gives each
        window's rows exactly (``_stacks_exactly``); otherwise, and always
        in eval mode, once per utterance.  Each group is pooled by one
        stacked ``lde_pool`` call; rows come back in input order, and a
        row's bytes do not depend on which other utterances share the list.
        """
        lengths = np.array([len(x) for x in utts])
        embs = np.empty((len(utts), self.config.lde.output_dim))
        pools = []
        for t in np.unique(lengths):
            rows = np.flatnonzero(lengths == t)
            if mode == "train" and _stacks_exactly(self, int(t), first_group):
                stack = np.asarray(utts) if len(rows) == len(utts) else np.stack([utts[i] for i in rows])
                out, ex_cache = self.extractor_forward(stack, mode, first_group)
                windows = [(slice(None), ex_cache)]
            else:
                outs, ex_caches = zip(*(self.extractor_forward(utts[i], mode, first_group) for i in rows))
                out = np.stack(outs)
                windows = list(enumerate(ex_caches))
            embs[rows], lde_cache = lde_pool(out, self.params["lde.dict"], self.params["lde.log_scale"])
            pools.append((rows, lde_cache, windows))
        return embs, pools

    def encode_backward(self, demb, cache, grads):
        """Backward of ``encode`` for ``demb`` [N x K*D]; the trunk backward
        descends to the first group the forward ran."""
        for rows, lde_cache, windows in cache:
            dstack, ddict, dlog = lde_pool_backward(demb[rows], lde_cache)
            _accum(grads, "lde.dict", ddict)
            _accum(grads, "lde.log_scale", dlog)
            for at, ex_cache in windows:
                self.extractor_backward(dstack[at], ex_cache, grads)

    # -- per-domain blocks --------------------------------------------------

    def _check_domain(self, domain: int) -> None:
        if not self.has_subnets:
            raise StructuralError("model has no domain subnets; run the adaptation stage first")
        if not 0 <= domain < self.config.subnet.num_domains:
            raise UnknownDomainError(
                f"domain {domain} outside configured range 0..{self.config.subnet.num_domains - 1}"
            )

    def subnet_forward(self, emb, domain: int, stage: str = "full", mode: str = "train"):
        """Domain subnet on embeddings [n x K*D]: the two front layers, then
        the back half, whose final layer has no activation.

        The cache exposes the front output, the space where cross-domain
        agreement is measured, under ``cache['front']``.  ``stage`` takes
        only ``'full'``; it remains for callers that pass it positionally
        (perfbench/kernels.py).
        """
        self._check_domain(domain)
        if stage != "full":
            raise ContractError(f"unknown subnet stage {stage!r}")
        h = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        steps = []
        for i, layer in enumerate(("front.0", "front.1", "back.0", "back.1")):
            name = f"sub{domain}.{layer}"
            pre, af_cache = affine_forward(h, self.params[f"{name}.W"], self.params[f"{name}.b"])
            h, relu_cache = (pre, None) if i == 3 else relu_forward(pre)
            if i == 1:
                front = h
            if mode == "train":
                steps.append((name, af_cache, relu_cache))
        return h, {"steps": steps, "front": front}

    def subnet_backward(self, dout, dfront, cache, grads):
        """Backward through a full-stage subnet pass.

        ``dout`` is the gradient at the back output, ``dfront`` an extra
        gradient injected at the front output (either may be None).
        """
        steps = cache["steps"]
        dh = None if dout is None else np.atleast_2d(dout)
        for i in range(len(steps) - 1, -1, -1):
            layer, af_cache, relu_cache = steps[i]
            if i == 1 and dfront is not None:
                extra = np.atleast_2d(dfront)
                dh = extra if dh is None else dh + extra
            if dh is None:
                continue
            dpre = dh if relu_cache is None else relu_backward(dh, relu_cache)
            dh, dw, db = affine_backward(dpre, af_cache)
            _accum(grads, f"{layer}.W", dw)
            _accum(grads, f"{layer}.b", db)
        return dh

    def classifier_forward(self, emb, domain: int):
        """Affine map from domain embedding space to speaker logits."""
        self._check_domain(domain)
        emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        logits, af_cache = affine_forward(emb, self.params[f"cls{domain}.W"], self.params[f"cls{domain}.b"])
        return logits, (domain, af_cache)

    def classifier_backward(self, dlogits, cache, grads):
        domain, af_cache = cache
        demb, dw, db = affine_backward(np.atleast_2d(dlogits), af_cache)
        _accum(grads, f"cls{domain}.W", dw)
        _accum(grads, f"cls{domain}.b", db)
        return demb

    def head_forward(self, emb):
        """Shared softmax head used by the pretrain and fine-tune stages."""
        emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        logits, af_cache = affine_forward(emb, self.params["head.W"], self.params["head.b"])
        return logits, af_cache

    def head_backward(self, dlogits, cache, grads):
        demb, dw, db = affine_backward(np.atleast_2d(dlogits), cache)
        _accum(grads, "head.W", dw)
        _accum(grads, "head.b", db)
        return demb


def _accum(grads: dict, name: str, value) -> None:
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


# a gemm of fewer rows may take another BLAS path, whose rows need not be
# bit-equal to the same rows of a larger product (tests/test_blas_rows.py)
_MIN_GEMM_ROWS = 8


# OpenBLAS (SkylakeX kernels) runs products of at most 10^6 multiply-adds
# through separate small-matrix kernels
_SMALL_GEMM_MACS = 10**6


@functools.lru_cache(maxsize=64)
def _gemm_rows_exact(k: int, n: int, transposed: bool = False) -> bool:
    """Whether the BLAS gives each row of an [m x k] @ [k x n] product with
    m >= 8 the same bits whatever the other rows.  With ``transposed`` the
    right operand is the transposed view of an [n x k] matrix, the way the
    input gradient ``dpre @ W.T`` passes it, which OpenBLAS sends to other
    kernels.  Kernels take rows in blocks of at most 16, so every row count
    8..23 at 16 offsets meets every block tail; each slice is checked
    against a 40-row product and against one of over 10^6 multiply-adds,
    which leaves the small-matrix kernels.  Some shapes fail: with OpenBLAS
    0.3.31 on x86-64, the last m % 4 rows differ when n % 8 is 1, 2 or 3
    and k >= 16, and a small product's rows differ from a large one's when
    n % 8 is 4 and k >= 16."""
    rng = np.random.default_rng(0)
    # rows past 40 only make the large product large; zeros cost no draws
    x = np.zeros((max(40, _SMALL_GEMM_MACS // (k * n) + 24), k))
    x[:40] = rng.normal(size=(40, k))
    w = rng.normal(size=(n, k)).T if transposed else rng.normal(size=(k, n))
    fulls = [(x[:40] @ w).tobytes(), (x @ w)[:40].tobytes()]
    row = 8 * n  # bytes per product row
    for m in range(_MIN_GEMM_ROWS, 24):
        for a in range(16):
            part = (x[a : a + m] @ w).tobytes()
            if any(part != full[a * row : (a + m) * row] for full in fulls):
                return False
    return True


def _stacks_exactly(model: Model, t: int, first_group: int) -> bool:
    """Whether windows of ``t`` frames can go through groups
    ``first_group``..4 as one stack, forward and backward, with every
    window's rows and grads bit-equal to running it alone.  That needs
    t >= 8, the row fact for each forward ``x @ W`` and each input-gradient
    ``dpre @ W.T`` the backward computes, and groups at least 2 wide: numpy
    sums a one-wide grad over the windows pairwise, not in order."""
    if t < _MIN_GEMM_ROWS:
        return False
    for g in range(first_group - 1, NUM_GROUPS):
        k, n = model.params[f"g{g + 1}.W"].shape
        if n < 2 or not _gemm_rows_exact(k, n):
            return False
        if g >= first_group and not _gemm_rows_exact(n, k, transposed=True):
            return False
    return True


class FrozenPrefix:
    """Exact output of the frozen groups g1-g3 for training crops.

    Finetune and adapt train only from g4 up, so g1-g3 see the same frames
    at every step.  A crop replicates its own edge frames, and only its
    R = sum(context[:3]) rows at each end see them: rows R..L-R-1 of a crop
    of L frames at offset s equal rows s+R..s+L-R-1 of g1-g3 run over the
    whole utterance.  So a crop of a tabled utterance reads its middle rows
    from ``table`` and takes its R edge rows at each end from the 2R-frame
    window there; the windows of all such crops go through g1-g3 in one
    stacked [2N, 2R, D] pass, one gemm per group.  The rows are exact, not
    close: a gemm row's bits do not depend on the other rows of a product
    of at least 8 rows, which is checked per group shape before any table
    is built.  Crops that are padded, have at most 2R or fewer than 8
    frames, come from an untabled utterance, or would leave the edge pass
    under 8 rows go through g1-g3 whole, one by one: stacking them would
    hold every crop's spliced g1 input at once, several MB at the default
    shapes.
    """

    def __init__(self, model: Model, utterances: dict):
        """Table g1-g3 over each frame matrix in ``utterances`` (utterance
        id -> frames).  An empty dict, or a group shape whose gemm rows
        depend on their product, builds no table."""
        self.model = model
        self.halo = sum(model.config.extractor.context[:FROZEN_GROUPS])
        if utterances and not all(_gemm_rows_exact(*model.params[f"g{g + 1}.W"].shape)
                                  for g in range(FROZEN_GROUPS)):
            utterances = {}
        self.table = {u: self._run(x) for u, x in utterances.items()}

    def _run(self, frames):
        return self.model._groups_forward(frames, 1, FROZEN_GROUPS, "eval")[0]

    def crop_rows(self, crops, keys):
        """g3 rows [N x L x D] of crops [L x input_dim] of one length L, in
        order.

        ``keys`` holds each crop's ``(utt_id, offset)``; offset None marks a
        padded crop.
        """
        r, size = self.halo, len(crops[0])
        tabled = [i for i, (utt, s) in enumerate(keys)
                  if s is not None and utt in self.table and size >= max(_MIN_GEMM_ROWS, 2 * r + 1)]
        if r and 4 * r * len(tabled) < _MIN_GEMM_ROWS:
            tabled = []
        out = np.empty((len(crops), size, self.model.config.extractor.group_dims[FROZEN_GROUPS - 1]))
        if tabled and r:
            edges = self._run(np.stack([w for i in tabled for w in (crops[i][: 2 * r], crops[i][-2 * r :])]))
            out[tabled, :r] = edges[0::2, :r]
            out[tabled, size - r :] = edges[1::2, r:]
        for i in tabled:
            utt, s = keys[i]
            out[i, r : size - r] = self.table[utt][s + r : s + size - r]
        whole = set(range(len(crops))).difference(tabled)
        for i in sorted(whole):
            out[i] = self._run(crops[i])
        return out


def set_trainable(model: Model, stage: str):
    """Build the ParamGroup configuration for a training stage.

    pretrain: everything trainable at multiplier 1.  finetune: groups 1-3
    frozen, group 4 + pooling + head trainable.  adapt: groups 1-3 and the
    old head frozen, group 4 + pooling at multiplier 1, subnets and
    classifiers at multiplier 10 (they start from scratch).
    """
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    if stage == "adapt" and not model.has_subnets:
        raise StructuralError("adapt stage requires materialized subnets")
    groups = []
    for name in model.group_names():
        tensors = model.tensors_of_group(name)
        frozen = False
        mult = 1.0
        if stage == "finetune":
            frozen = name not in ("g4", "lde", "head")
        elif stage == "adapt":
            if name in ("g1", "g2", "g3", "head"):
                frozen = True
            elif name.startswith(("sub", "cls")):
                mult = 10.0
        groups.append(ParamGroup(name, tensors, lr_multiplier=mult, frozen=frozen))
    return groups


def trainable_names(groups) -> set:
    return {name for g in groups if not g.frozen for name in g.tensors}


# ---------------------------------------------------------------------------
# checkpoint I/O

@dataclass(frozen=True)
class CheckpointMeta:
    stage: str
    step: int
    fingerprint: bytes


def save_checkpoint(path, model: Model, stage: str, step: int) -> None:
    """Write the model to the binary checkpoint format (float32 storage)."""
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    tensors = dict(model.params)
    tensors[_ARCH_TENSOR] = _arch_vector(model.config)
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<B", _STAGE_BYTE[stage]))
    buf.write(struct.pack("<Q", int(step)))
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"refusing to save non-finite tensor {name}")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr.tobytes())
    buf.write(model.config.fingerprint())
    write_artifact(path, buf.getvalue(), "checkpoint")


def load_checkpoint(path):
    """Read a checkpoint; returns ``(Model, CheckpointMeta)``.

    The stored fingerprint is verified against the architecture embedded in
    the file.
    """
    with open_artifact(path, "checkpoint") as fh:
        if read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise BadMagicError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise BadVersionError(f"unsupported checkpoint version {version}")
        (stage_byte,) = struct.unpack("<B", read_exact(fh, 1, "stage"))
        if stage_byte >= len(STAGES):
            raise FileFormatError(f"unknown stage byte {stage_byte}")
        (step,) = struct.unpack("<Q", read_exact(fh, 8, "step"))
        (count,) = struct.unpack("<I", read_exact(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, "tensor name length"))
            try:
                name = read_exact(fh, name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FileFormatError(f"checkpoint tensor name is not UTF-8: {exc}") from exc
            (rank,) = struct.unpack("<B", read_exact(fh, 1, "tensor rank"))
            dims = [struct.unpack("<I", read_exact(fh, 4, "tensor dims"))[0] for _ in range(rank)]
            payload = read_exact(fh, 4 * math.prod(dims), f"tensor {name} payload")
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
            tensors[name] = arr
        stored_fp = read_exact(fh, 16, "fingerprint")
        if fh.read(1):
            raise FileFormatError("trailing bytes after checkpoint fingerprint")
    if _ARCH_TENSOR not in tensors:
        raise FileFormatError("checkpoint lacks its architecture record")
    config = _config_from_arch(tensors.pop(_ARCH_TENSOR))
    if config.fingerprint() != stored_fp:
        raise FingerprintMismatchError("checkpoint fingerprint does not match its stored architecture")
    model = Model(config, tensors)
    _validate_param_names(model)
    return model, CheckpointMeta(STAGES[stage_byte], step, stored_fp)


def _expected_param_names(config: ModelConfig, with_subnets: bool) -> set:
    names = set()
    for g in range(NUM_GROUPS):
        names |= {f"g{g + 1}.W", f"g{g + 1}.b"}
    names |= {"lde.dict", "lde.log_scale", "head.W", "head.b"}
    if with_subnets:
        for h in range(config.subnet.num_domains):
            for layer in ("front.0", "front.1", "back.0", "back.1"):
                names |= {f"sub{h}.{layer}.W", f"sub{h}.{layer}.b"}
            names |= {f"cls{h}.W", f"cls{h}.b"}
    return names


def _validate_param_names(model: Model) -> None:
    have = set(model.params)
    expected = _expected_param_names(model.config, model.has_subnets)
    if have != expected:
        missing = sorted(expected - have)
        extra = sorted(have - expected)
        raise FileFormatError(f"checkpoint parameter set malformed; missing={missing} extra={extra}")
