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
batch's crops as one stack [N, L, D].  In evaluation, and for the frozen
g1-g3 below, a pass has no backward, so it runs in stacks of about
``_STACK_ROWS`` rows, which keep each group's input and output in L2
(``Model._forward_windows``).  Either way a layer group is one
``splice_forward``, a gather that splices each window on its own, and one
gemm over the stack's rows.  Pooling is in matrix form with no [T, K, D]
tensor: in training one stacked ``lde_pool`` call per group, in
evaluation one per chunk of about ``_POOL_ROWS`` rows, so an evaluated
domain's whole trunk output is never held.  A canonical frame order makes
each pooled row exactly invariant to the order of its frames and to its
batch, and a clamp keeps expanded distances non-negative.

Training's contract is determinism: the same crops and parameters give
the same bytes, whatever the shapes.  Every training group runs as one
stack, and its weight grads are each crop's own product summed over the
crops in order.  Where a product row's bits do not depend on the other
rows, as at the default shapes, the stack also equals running each crop
alone (tests/test_blas_rows.py).  Forward-only passes promise more: an
utterance's rows do not depend on its batch, on any BLAS kernel, as every
product of a T-frame window has one height (``Model._forward_windows``).

The trunk entry points take the first group to run.  Finetune and adapt
freeze g1-g3, so they feed g4 with each crop's g3 rows from a
``FrozenPrefix``, which reads them from a per-utterance table of g1-g3
where that pays.

All forward passes return caches sufficient for exact hand-derived
backprop; the tests check every backward here against central differences.
"""

import functools
import hashlib
import itertools
import math
import re
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
    TruncatedFileError,
    UnknownDomainError,
)
from .fileio import read_sized, write_artifact
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
_SUBNET_LAYERS = ("front.0", "front.1", "back.0", "back.1")


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
    try:
        return ModelConfig(
            extractor=ExtractorConfig(vals[1], tuple(vals[2:6]), tuple(vals[6:10])),
            lde=LdeConfig(vals[10], vals[5]),
            subnet=SubnetConfig(tuple(vals[11:13]), tuple(vals[13:15]), vals[15]),
            num_speakers=vals[16],
        )
    except ContractError as exc:
        raise FileFormatError(f"architecture record in checkpoint is no valid model: {exc}") from exc


# ---------------------------------------------------------------------------
# layer primitives (forward returns a cache, backward consumes it)

@functools.lru_cache(maxsize=64)
def _context_index(t: int, context: int, d: int = 1) -> np.ndarray:
    """Flat source of each spliced value [t x (2c+1)*d] of a t-frame window
    of d-wide frames, edges replicated (at d = 1, the source row of each
    slot).  Callers share the array, so it is read-only."""
    rows = np.clip(np.arange(t)[:, None] + np.arange(-context, context + 1)[None, :], 0, t - 1)
    idx = (rows[:, :, None] * d + np.arange(d)).reshape(t, -1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=64)
def _stack_index(n: int, t: int, context: int, height: int) -> np.ndarray:
    """Source row in a stack of n t-frame windows of each spliced slot of a
    ``height``-row product: each window's slots, then the first row's."""
    idx = (np.arange(n)[:, None, None] * t + _context_index(t, context)).reshape(n * t, -1)
    idx = np.concatenate([idx, np.repeat(idx[:1], height - n * t, axis=0)]).reshape(-1)
    idx.flags.writeable = False
    return idx


def splice_forward(x, context: int, height: int = 0, windows=None):
    """A group's product rows [H x (2c+1)*D]: each frame with its +-context
    neighbours, edges replicated at each window's ends, then copies of the
    first row up to H = max(``height``, N*T).  ``x`` is a window [T x D], a
    stack [N x T x D] or, with ``windows`` = (N, T), rows [R x D] led by
    such a stack's; a context-0 splice of rows already H tall passes them
    through, so a forward-only stack keeps its height without a copy."""
    n, t = windows or ((1, len(x)) if x.ndim == 2 else x.shape[:2])
    rows = x.reshape(-1, x.shape[-1])
    height = max(height, n * t)
    cache = (x.shape, n, t, context)
    if not context and len(rows) == height:
        return rows, cache
    spliced = np.take(rows, _stack_index(n, t, context, height), axis=0)
    return spliced.reshape(height, -1), cache


def splice_backward(dy, cache):
    """Gradient of ``splice_forward``, shaped like its input, from ``dy``
    [N*T x (2c+1)*D], the spliced rows of a product at its own height."""
    shape, n, t, context = cache
    if not context:
        return dy.reshape(shape)
    # bincount adds each input value's slots from 0.0 in (window, t, j, d)
    # order, as np.add.at does window by window, so the bits are a scatter-add's;
    # one offset per window on the cached per-window index keeps windows apart
    d = shape[-1]
    flat = np.arange(0, n * t * d, t * d)[:, None] + _context_index(t, context, d).reshape(1, -1)
    return np.bincount(flat.ravel(), weights=dy.ravel(), minlength=n * t * d).reshape(shape)


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


# numpy reduces a short last axis one short run at a time; from this many rows
# _sum_last takes the same sums in fewer, longer passes
_SUM_ROWS = 512


def _pairwise_columns(x, lo: int, n: int):
    """numpy's pairwise sum of columns lo..lo+n-1 of ``x``, as column adds."""
    if n < 8:  # in order, from -0.0, which leaves the first column as it is
        res = x[..., lo] if n == 1 else x[..., lo] + x[..., lo + 1]
        for i in range(lo + 2, lo + n):
            res += x[..., i]
        return res
    if n <= 128:  # eight accumulators over the blocks of 8, then the rest in order
        end = lo + n - n % 8
        r = [x[..., lo + j] for j in range(8)]
        if end > lo + 8:
            r = [x[..., lo + j] + x[..., lo + 8 + j] for j in range(8)]
            for i in range(lo + 16, end, 8):
                for j in range(8):
                    r[j] += x[..., i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += x[..., i]
        return res
    half = n // 2 - n // 2 % 8  # halves split at a multiple of 8
    return _pairwise_columns(x, lo, half) + _pairwise_columns(x, lo + half, n - half)


def _sum_last(x):
    """``x.sum(axis=-1, keepdims=True)``, bit for bit: numpy adds a row's
    entries pairwise to its 0.0 identity, and so do the column adds here."""
    if x.size < _SUM_ROWS * x.shape[-1]:
        return x.sum(axis=-1, keepdims=True)
    return (0.0 + _pairwise_columns(x, 0, x.shape[-1]))[..., None]


def _sum_frames(x):
    """``x.sum(axis=-2)``, bit for bit.  Over K > 1 contiguous columns numpy
    and einsum both add the T rows in order to 0.0, one row of K at a time,
    and einsum's loop costs less per row; a one-wide axis numpy sums
    pairwise, so that, and any other layout, stays numpy's."""
    if x.shape[-1] == 1 or not x.flags.c_contiguous:
        return x.sum(axis=-2)
    return np.einsum("...tk->...k", x)


def lde_pool(frames, dictionary, log_scale):
    """Pool frames [..., T, D] into embeddings [..., K*D] by soft assignment.

    Each frame is softly assigned to dictionary components with weights
    softmax_k(-s_k * ||f_t - d_k||^2), s_k = exp(log_scale_k); component k
    aggregates the weighted mean residual (f_t - d_k).  Leading axes stack
    utterances of equal length; each is pooled on its own.

    The frames of each utterance are first put in a canonical order, a stable
    sort of their rows' bytes (each row viewed as one byte string).  Every
    sum over frames then sees the same summands in the same order whatever
    order the frames came in, so the result is exactly (bitwise)
    permutation-invariant.  Distances use the expansion
    ``|f|^2 - 2 f.d + |d|^2``, which needs no [T,K,D] residual tensor but
    cancels to a rounding error of either sign when a frame sits on a
    component; clamping at 0 keeps every distance non-negative.  The sums
    over the K components and over the T frames are numpy's own, taken in
    fewer passes (``_sum_last``, ``_sum_frames``).
    """
    rows = np.ascontiguousarray(frames, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ContractError("dictionary pooling needs at least one frame")
    if rows.shape[-1] != dictionary.shape[1]:
        raise StructuralError("frame dim does not match dictionary component dim")
    t, d = rows.shape[-2:]
    # a byte string compares as unsigned bytes, as np.void does, without a
    # generic compare call per pair
    order = np.argsort(rows.view(f"S{rows.itemsize * d}")[..., 0], axis=-1, kind="stable")
    # flat row of each canonical frame, so one take gathers every utterance
    order = (order + t * np.arange(order.size // t).reshape(*order.shape[:-1], 1)).reshape(-1)
    f = np.take(rows.reshape(-1, d), order, axis=0).reshape(rows.shape)
    s = np.exp(log_scale)
    sqdist = f @ dictionary.T
    sqdist *= 2.0
    np.subtract(np.einsum("...td,...td->...t", f, f)[..., None], sqdist, out=sqdist)
    sqdist += np.einsum("kd,kd->k", dictionary, dictionary)
    np.maximum(sqdist, 0.0, out=sqdist)
    logits = -s * sqdist
    # each row's max as a running maximum over the K columns: a max is exact
    # in any order, and numpy reduces a short last axis slowly
    peak = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(peak, logits[..., j], out=peak)
    logits -= peak[..., None]
    w = np.exp(logits, out=logits)
    w /= _sum_last(w)
    # per-row softmax is strictly positive, but a component every frame is far
    # from can underflow to 0 mass; floor it so starved components pool to ~0
    msum = _sum_frames(w)  # [..., K]
    mass = np.maximum(msum, np.finfo(np.float64).tiny)
    # normalized per-component weights (each column sums to 1, or to 0 for a
    # fully starved component); backward works in this scale so that 1/mass
    # never appears as a bare factor that could overflow
    u = w / mass[..., None, :]
    usum = msum / mass  # the column sums of u, in closed form
    agg = np.swapaxes(u, -1, -2) @ f  # [..., K, D]
    agg -= usum[..., None] * dictionary
    cache = (order, f, dictionary, sqdist, w, u, usum, agg, s)
    return agg.reshape(*agg.shape[:-2], -1), cache


def lde_pool_backward(dout, cache):
    """Gradients of the pooled embeddings [..., K*D] w.r.t. frames [..., T, D],
    dictionary and log_scale, the last two summed over the stacked utterances.
    The cache is only read, so it can be differentiated again."""
    order, f, dictionary, sqdist, w, u, usum, agg, s = cache
    de = dout.reshape(agg.shape)  # [..., K, D]
    # weight gradient de_k . (f_t - d_k - agg_k) combines the numerator and the
    # normalizing-mass paths; the mass division is folded into u so starved
    # components get gradient 0
    gw = f @ np.swapaxes(de, -1, -2)
    gw -= np.einsum("...kd,...kd->...k", de, dictionary + agg)[..., None, :]
    ug = np.multiply(u, gw, out=gw)
    spare = w * _sum_last(ug)
    gl = np.subtract(ug, spare, out=ug)  # softmax backward per frame
    k, d = dictionary.shape
    dlog_scale = -s * _sum_frames(np.multiply(gl, sqdist, out=spare).reshape(-1, k))
    a = np.multiply(2.0 * s, gl, out=gl)  # gradient of the residual f_t - d_k is u de_k - a (f_t - d_k)
    ddict = np.swapaxes(a, -1, -2) @ f
    ddict -= _sum_frames(a)[..., None] * dictionary
    ddict -= usum[..., None] * de
    ddict = ddict.reshape(-1, k, d).sum(axis=0)
    dsorted = u @ de
    dsorted += a @ dictionary
    dsorted -= _sum_last(a) * f
    # back to the input order: a gather through the inverse permutation
    unsort = np.empty_like(order)
    unsort[order] = np.arange(order.size)
    return np.take(dsorted.reshape(-1, d), unsort, axis=0).reshape(f.shape), ddict, dlog_scale


# ---------------------------------------------------------------------------

def _param_shapes(config: ModelConfig, with_subnets: bool) -> dict:
    """Every parameter's name and shape, in creation order."""
    shapes = {}

    def dense(layer, d_in, d_out):
        shapes[f"{layer}.W"] = (d_in, d_out)
        shapes[f"{layer}.b"] = (d_out,)

    ex, emb, spk = config.extractor, config.lde.output_dim, config.num_speakers
    in_dim = ex.input_dim
    for g, (width, context) in enumerate(zip(ex.group_dims, ex.context)):
        dense(f"g{g + 1}", (2 * context + 1) * in_dim, width)
        in_dim = width
    shapes["lde.dict"] = (config.lde.num_components, config.lde.component_dim)
    shapes["lde.log_scale"] = (config.lde.num_components,)
    dense("head", emb, spk)
    if with_subnets:
        sn = config.subnet
        dims = [emb, *sn.front_dims, *sn.back_dims]
        for layer, d_in, d_out in zip(_SUBNET_LAYERS, dims[:-1], dims[1:]):
            for h in range(sn.num_domains):
                dense(f"sub{h}.{layer}", d_in, d_out)
        for h in range(sn.num_domains):
            dense(f"cls{h}", sn.embedding_dim, spk)
    return shapes


def _he_uniform(rng, shape):
    limit = np.sqrt(6.0 / shape[0])
    # quantize to float32 so fresh models round-trip checkpoints bit-exactly
    return rng.uniform(-limit, limit, size=shape).astype(np.float32).astype(np.float64)


def _init_missing(params: dict, shapes: dict, seed: int) -> None:
    """Draw each parameter of ``shapes`` that ``params`` lacks.  A weight
    comes from its layer's substream, drawn once and copied to every
    domain's layer; the dictionary is standard normal, the rest zero."""
    drawn = {}
    for name, shape in shapes.items():
        if name in params:
            continue
        layer, _, kind = name.rpartition(".")
        if kind == "W":
            tag = re.sub(r"^(sub|cls)\d+", r"\1", layer)  # sub2.front.0 -> sub.front.0
            if tag not in drawn:
                drawn[tag] = _he_uniform(substream(seed, "init", tag), shape)
            params[name] = drawn[tag].copy()
        elif name == "lde.dict":
            params[name] = substream(seed, "init", "lde").normal(size=shape).astype(np.float32).astype(np.float64)
        else:
            params[name] = np.zeros(shape)


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
        self._stacks = {}
        self._stack_subnets()

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, config: ModelConfig, seed: int, with_subnets: bool = False) -> "Model":
        params = {}
        _init_missing(params, _param_shapes(config, with_subnets), seed)
        return cls(config, params)

    def ensure_subnets(self, seed: int) -> None:
        """Materialize per-domain subnets and classifiers (no-op if present).

        One random draw is shared by all domains: subnets start parameter-wise
        identical and only diverge through their own domain's gradients, so the
        early discrepancy/alignment losses are exactly zero rather than noise
        between unrelated random maps.
        """
        if not self.has_subnets:
            _init_missing(self.params, _param_shapes(self.config, True), seed)
            self._stack_subnets()

    @property
    def has_subnets(self) -> bool:
        return "sub0.front.0.W" in self.params

    def _stack_subnets(self) -> None:
        """Hold each subnet tensor as a view of one block [H, ...] per layer
        and kind, so that a pass through every subnet multiplies by the block
        itself, with no copy.  The optimizer updates the views in place."""
        if not self.has_subnets:
            return
        for layer in _SUBNET_LAYERS:
            for kind in "Wb":
                names = [f"sub{d}.{layer}.{kind}" for d in range(self.config.subnet.num_domains)]
                block = np.array([self.params[name] for name in names])
                self.params.update(zip(names, block))
                self._stacks[layer, kind] = block, [self.params[name] for name in names]

    # -- trunk ------------------------------------------------------------

    def extractor_forward(self, x, mode: str = "train", first_group: int = 1, height: int = 0):
        """Run frames [T x D], or a stack of windows [N x T x D], through
        groups ``first_group``..4; the shape is preserved but for D.

        A 2-D input runs as a stack of one.  D is the input width of
        ``first_group``: the input dim for group 1, else the width of the
        group below.  A stage whose lower groups are frozen feeds their
        output here (see ``FrozenPrefix``), so the train caches, and the
        backward, cover only the groups that train.  ``height``: see
        ``_groups_forward``.
        """
        ex = self.config.extractor
        if not 1 <= first_group <= NUM_GROUPS:
            raise ContractError(f"first group must lie in 1..{NUM_GROUPS}, got {first_group}")
        x = np.asarray(x)
        if x.ndim not in (2, 3) or min(x.shape[:-1]) < 1:
            raise StructuralError("extractor input must be a nonempty [T x D] matrix or [N x T x D] stack")
        in_dim = ex.input_dim if first_group == 1 else ex.group_dims[first_group - 2]
        if x.shape[-1] != in_dim:
            raise StructuralError(f"group g{first_group} expects feature dim {in_dim}, got {x.shape[-1]}")
        h, caches = self._groups_forward(x.reshape((-1,) + x.shape[-2:]), first_group, NUM_GROUPS, mode, height)
        return h.reshape(x.shape[:-1] + h.shape[-1:]), caches

    def _groups_forward(self, h, first: int, last: int, mode: str, height: int = 0):
        """The one group loop over a stack of windows [N, T, D]: each of
        groups ``first``..``last`` is one ``splice_forward`` and one gemm over
        the rows of every window, then copies of the first row up to ``height``.
        Returns the output and, in train mode, one cache per group run.
        Frames come in as stored (float32 from ``corpus.read_features``) or
        as float64 rows of a lower group; this is where they become float64,
        exactly, before any arithmetic.
        """
        h = np.asarray(h, dtype=np.float64)
        n, t = h.shape[:2]
        rows = h.reshape(n * t, -1)
        caches = [] if mode == "train" else None
        for g in range(first - 1, last):
            rows, sp_cache = splice_forward(rows, self.config.extractor.context[g], height, (n, t))
            pre, af_cache = affine_forward(rows, self.params[f"g{g + 1}.W"], self.params[f"g{g + 1}.b"])
            rows, relu_cache = relu_forward(pre)
            if mode == "train":
                caches.append((sp_cache, af_cache, relu_cache))
        return rows[: n * t].reshape(n, t, -1), caches

    def _forward_windows(self, windows, first: int, last: int):
        """Yield the output [T, D'] of groups ``first``..``last``, in eval
        mode, of each of the equal-length windows [T, D], in order.

        The windows run in stacks of ``per = max(1, _STACK_ROWS // T)``,
        and every product has ``per * T`` rows rounded up to a multiple of
        16, the last stack's and a lone window's too.  At a fixed height a
        row's bits depend on neither the other rows nor where it sits
        (tests/test_blas_rows.py), so a window's rows do not depend on its
        batch and no window runs alone.  A pass up to g4 goes through
        ``extractor_forward``, the one trunk entry point.  Each output is a
        view of its own stack's output: one block per stack, not one for all
        the windows, leaves the heap less fragmented.
        """
        shape = np.shape(windows[0])
        if len(shape) != 2 or any(np.shape(x) != shape for x in windows):
            for x in windows:  # extractor_forward names a malformed window's fault
                self.extractor_forward(x, "eval", first)
            raise StructuralError("the windows of one length must be [T x D] matrices of one width")
        t = shape[0]
        per = max(1, _STACK_ROWS // t)
        # kernels take rows in blocks of up to 16, and a block's tail rows may take another path
        height = -(-per * t // 16) * 16
        for i in range(0, len(windows), per):
            stack = np.stack(windows[i : i + per])
            if last == NUM_GROUPS:
                yield from self.extractor_forward(stack, "eval", first, height)[0]
            else:
                yield from self._groups_forward(stack, first, last, "eval", height)[0]

    def extractor_backward(self, dh, caches, grads):
        """Accumulate the parameter grads of every group the forward ran;
        ``dh`` is the gradient of the forward's output, of its shape.

        A stack's weight and bias grads are each window's own product
        (a batched ``x.T @ dpre``) summed over the windows in order, as
        running the windows one by one and adding each one's grads in turn
        would (tests/test_blas_rows.py).
        """
        first = NUM_GROUPS - len(caches)  # index of the lowest group run
        for g in range(NUM_GROUPS - 1, first - 1, -1):
            sp_cache, (x, w), relu_cache = caches[g - first]
            dpre = relu_backward(dh.reshape(relu_cache.shape), relu_cache)
            windows = sp_cache[1:3]  # (N, T)
            dw = (np.swapaxes(x.reshape(windows + (-1,)), -1, -2) @ dpre.reshape(windows + (-1,))).sum(axis=0)
            db = _sum_frames(dpre.reshape(windows + (-1,))).sum(axis=0)
            _accum(grads, f"g{g + 1}.W", dw)
            _accum(grads, f"g{g + 1}.b", db)
            # the input gradient of the lowest group run is never used
            if g > first:
                dh = splice_backward(dpre @ w.T, sp_cache)

    def encode(self, utts, mode: str = "train", first_group: int = 1):
        """Trunk pass over frame matrices -> embeddings [N x K*D].

        ``utts`` is a list of frame matrices or a stack [N x T x D].  They
        are grouped by frame count, and the extractor runs from
        ``first_group`` over each group.  In train mode it runs once per
        group, as one stack, and the group is pooled by one stacked
        ``lde_pool`` call; the result is deterministic, and equals running
        each utterance alone where the row fact holds.  In eval mode it
        runs in stacks of about ``_STACK_ROWS`` rows (``_forward_windows``),
        pooled in chunks of about ``_POOL_ROWS`` rows as the stacks come
        out, so no group's whole trunk output is held, and the cache is
        empty; a row's bytes there do not depend on which other utterances
        share the list or its chunk.  Rows come back in input order.
        """
        lengths = np.array([len(x) for x in utts])
        embs = np.empty((len(utts), self.config.lde.output_dim))
        lde = (self.params["lde.dict"], self.params["lde.log_scale"])
        pools = []
        for t in np.unique(lengths):
            rows = np.flatnonzero(lengths == t)
            if mode != "train":
                outs = self._forward_windows([utts[i] for i in rows], first_group, NUM_GROUPS)
                per = max(1, _POOL_ROWS // t)
                for at in range(0, len(rows), per):
                    chunk = rows[at : at + per]
                    embs[chunk] = lde_pool(np.stack(list(itertools.islice(outs, len(chunk)))), *lde)[0]
                continue
            stack = np.asarray(utts) if len(rows) == len(utts) else np.stack([utts[i] for i in rows])
            out, ex_cache = self.extractor_forward(stack, mode, first_group)
            embs[rows], lde_cache = lde_pool(out, *lde)
            pools.append((rows, lde_cache, ex_cache))
        return embs, pools

    def encode_backward(self, demb, cache, grads):
        """Backward of ``encode`` for ``demb`` [N x K*D]; the trunk backward
        descends to the first group the forward ran."""
        for rows, lde_cache, ex_cache in cache:
            dstack, ddict, dlog = lde_pool_backward(demb[rows], lde_cache)
            _accum(grads, "lde.dict", ddict)
            _accum(grads, "lde.log_scale", dlog)
            self.extractor_backward(dstack, ex_cache, grads)

    # -- per-domain blocks --------------------------------------------------

    def _check_domain(self, domain: int) -> None:
        if not self.has_subnets:
            raise StructuralError("model has no domain subnets; run the adaptation stage first")
        if not 0 <= domain < self.config.subnet.num_domains:
            raise UnknownDomainError(
                f"domain {domain} outside configured range 0..{self.config.subnet.num_domains - 1}"
            )

    def subnet_forward(self, emb, domains, stage: str = "full", mode: str = "train"):
        """Domain subnets on embeddings [..., n x K*D]: the two front layers,
        then the back half, whose final layer has no activation.

        ``domains`` is one domain or a sequence of H domains.  A sequence
        runs each layer as one batched product over its weights stacked
        [H, in, out], and ``emb`` broadcasts against that stack as in
        numpy's matmul: a batch [n x K*D] goes through every subnet, a stack
        [H x n x K*D] pairs its h-th batch with the h-th domain, and the
        outputs gain a leading H axis.  Each item of a batched product is the
        product one domain alone would make, so every row has the bits of
        that domain's pass.  The cache exposes the front output, the space
        where cross-domain agreement is measured, under ``cache['front']``.
        ``stage`` takes only ``'full'``; it remains for callers that pass it
        positionally (perfbench/kernels.py).
        """
        single = isinstance(domains, (int, np.integer))
        names = f"sub{domains}" if single else [f"sub{d}" for d in domains]
        for domain in [domains] if single else domains:
            self._check_domain(domain)
        if stage != "full":
            raise ContractError(f"unknown subnet stage {stage!r}")
        h = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        steps = []
        for i, layer in enumerate(_SUBNET_LAYERS):
            x = h
            h = x @ self._subnet_param(names, layer, "W") + self._subnet_param(names, layer, "b")[..., None, :]
            relu_cache = None
            if i < 3:
                h, relu_cache = relu_forward(h)
            if i == 1:
                front = h
            if mode == "train":
                steps.append((names, layer, x, relu_cache))
        return h, {"steps": steps, "front": front}

    def subnet_backward(self, dout, dfront, cache, grads):
        """Backward through a full-stage subnet pass.

        ``dout`` is the gradient at the back output, ``dfront`` an extra
        gradient injected at the front output (either may be None).  Returns
        the gradient shaped like the pass's ``emb``: a batch that went
        through several subnets gets their gradients summed in domain order.
        """
        steps = cache["steps"]
        dh = None if dout is None else np.atleast_2d(dout)
        for i in range(len(steps) - 1, -1, -1):
            names, layer, x, relu_cache = steps[i]
            if i == 1 and dfront is not None:
                extra = np.atleast_2d(dfront)
                dh = extra if dh is None else dh + extra
            if dh is None:
                continue
            dpre = dh if relu_cache is None else relu_backward(dh, relu_cache)
            dh = dpre @ np.swapaxes(self._subnet_param(names, layer, "W"), -1, -2)
            dw, db = np.swapaxes(x, -1, -2) @ dpre, dpre.sum(axis=-2)
            if isinstance(names, str):
                dw, db, names = [dw], [db], [names]
            for name, gw, gb in zip(names, dw, db):
                _accum(grads, f"{name}.{layer}.W", gw)
                _accum(grads, f"{name}.{layer}.b", gb)
        if dh is not None and dh.ndim > steps[0][2].ndim:
            dh = dh.sum(axis=0)  # from 0.0, as a sum of the domains' passes in order
        return dh

    def _subnet_param(self, names, layer: str, kind: str):
        """Tensor ``kind`` (W or b) of subnet ``layer``: one subnet's own, or
        a sequence's on a leading H axis.  Every subnet in order is the block
        its tensors are views of (``_stack_subnets``); a subset, or tensors
        bound anew since, are stacked into a copy."""
        if isinstance(names, str):
            return self.params[f"{names}.{layer}.{kind}"]
        tensors = [self.params[f"{name}.{layer}.{kind}"] for name in names]
        block, views = self._stacks.get((layer, kind), (None, ()))
        if len(tensors) == len(views) and all(t is v and t.base is block for t, v in zip(tensors, views)):
            return block
        return np.array(tensors)

    def _dense_forward(self, layer: str, emb):
        emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        logits, af_cache = affine_forward(emb, self.params[f"{layer}.W"], self.params[f"{layer}.b"])
        return logits, (layer, af_cache)

    def _dense_backward(self, dlogits, cache, grads):
        layer, af_cache = cache
        demb, dw, db = affine_backward(np.atleast_2d(dlogits), af_cache)
        _accum(grads, f"{layer}.W", dw)
        _accum(grads, f"{layer}.b", db)
        return demb

    def classifier_forward(self, emb, domain: int):
        """Affine map from domain embedding space to speaker logits."""
        self._check_domain(domain)
        return self._dense_forward(f"cls{domain}", emb)

    def classifier_backward(self, dlogits, cache, grads):
        return self._dense_backward(dlogits, cache, grads)

    def head_forward(self, emb):
        """Shared softmax head used by the pretrain and fine-tune stages."""
        return self._dense_forward("head", emb)

    def head_backward(self, dlogits, cache, grads):
        return self._dense_backward(dlogits, cache, grads)


def _accum(grads: dict, name: str, value) -> None:
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


# rows per stack of a forward-only trunk pass: a group's input and output stay in L2;
# no gemm shape is probed, as a window's products have one height (Model._forward_windows)
_STACK_ROWS = 512

# trunk output rows per lde_pool call of an eval-mode encode: bounds its
# memory, while pooling each stack alone was slower
_POOL_ROWS = 8 * _STACK_ROWS


class FrozenPrefix:
    """Exact output of the frozen groups g1-g3 for training crops.

    Finetune and adapt train only from g4 up, so g1-g3 see the same frames
    at every step.  A crop replicates its own edge frames, and only its
    R = sum(context[:3]) rows at each end see them: rows R..L-R-1 of a crop
    of L frames at offset s equal rows s+R..s+L-R-1 of g1-g3 run over the
    whole utterance.  So a crop of a tabled utterance reads its middle rows
    from ``table`` and takes its R edge rows at each end from the 2R-frame
    window there; the windows of all such crops go through g1-g3 in one
    stacked [2N, 2R, D] pass, one gemm per group.  Crops that are padded,
    have at most 2R frames or come from an untabled utterance go through
    g1-g3 whole.  They, and the utterances the table is built from, run as
    forward-only stacks (``Model._forward_windows``).  A tabled crop's rows
    equal running it whole where a gemm row keeps its bits at any height,
    as at the default shapes on the default kernel; training promises only
    determinism, so no shape is probed.
    """

    def __init__(self, model: Model, utterances: dict, crops: int, crop_frames: int):
        """The g1-g3 rows of ``crops`` crops of L = ``crop_frames`` frames
        drawn from ``utterances`` (utterance id -> frames).

        A tabled crop runs g1-g3 over its 4R edge-window frames instead of
        its L, so a table saves ``crops * (L - 4R)`` frames of work and
        costs one pass over the T frames of ``utterances``.  It is built
        only when ``crops * (L - 4R) > T``; on a wide corpus trained for
        few steps it would only add memory.
        """
        self.model = model
        self.halo = sum(model.config.extractor.context[:FROZEN_GROUPS])
        self.table = {}
        if crops * (crop_frames - 4 * self.halo) <= sum(len(x) for x in utterances.values()):
            return
        by_length = {}
        for u, x in utterances.items():
            by_length.setdefault(len(x), []).append(u)
        for ids in by_length.values():
            self.table.update(zip(ids, model._forward_windows([utterances[u] for u in ids], 1, FROZEN_GROUPS)))

    def crop_rows(self, crops, keys):
        """g3 rows [N x L x D] of crops [L x input_dim] of one length L, in
        order.

        ``keys`` holds each crop's ``(utt_id, offset)``; offset None marks a
        padded crop.
        """
        r, size = self.halo, len(crops[0])
        tabled = [i for i, (utt, s) in enumerate(keys) if s is not None and utt in self.table and size > 2 * r]
        out = np.empty((len(crops), size, self.model.config.extractor.group_dims[FROZEN_GROUPS - 1]))
        if tabled and r:
            # each crop's first and last 2R frames, as [2N, 2R, D] windows in crop order
            edge = np.r_[: 2 * r, size - 2 * r : size]
            windows = np.take(np.stack([crops[i] for i in tabled]), edge, axis=1).reshape(2 * len(tabled), 2 * r, -1)
            edges = self.model._groups_forward(windows, 1, FROZEN_GROUPS, "eval")[0]
            out[tabled, :r] = edges[0::2, :r]
            out[tabled, size - r :] = edges[1::2, r:]
        for i in tabled:
            utt, s = keys[i]
            out[i, r : size - r] = self.table[utt][s + r : s + size - r]
        whole = sorted(set(range(len(crops))).difference(tabled))
        for i, h in zip(whole, self.model._forward_windows([crops[i] for i in whole], 1, FROZEN_GROUPS)):
            out[i] = h
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
    lower = {f"g{g + 1}" for g in range(FROZEN_GROUPS)}
    tensors = {}
    for name in _param_shapes(model.config, model.has_subnets):
        tensors.setdefault(name.split(".")[0], {})[name] = model.params[name]
    groups = []
    for group, members in tensors.items():
        fresh = group.startswith(("sub", "cls"))
        if stage == "finetune":
            frozen = group in lower or fresh
        else:
            frozen = stage == "adapt" and (group in lower or group == "head")
        mult = 10.0 if fresh and stage == "adapt" else 1.0
        groups.append(ParamGroup(group, members, lr_multiplier=mult, frozen=frozen))
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
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<IBQI", CHECKPOINT_VERSION, _STAGE_BYTE[stage], int(step), len(tensors))]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"refusing to save non-finite tensor {name}")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    parts.append(model.config.fingerprint())
    write_artifact(path, parts, "checkpoint")


def load_checkpoint(path):
    """Read a checkpoint; returns ``(Model, CheckpointMeta)``.

    The file is read whole and parsed with a cursor that refuses a length
    past its end.  The stored fingerprint is verified against the
    architecture embedded in the file.
    """
    blob = read_sized(path, "checkpoint")[1]
    pos = 0

    def take(n, what):
        nonlocal pos
        if n > len(blob) - pos:
            raise TruncatedFileError(f"{path}: {what} needs {n} bytes, {len(blob) - pos} remain")
        pos += n
        return blob[pos - n : pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise BadMagicError("not a checkpoint file (bad magic)")
    (version,) = unpack("<I", "version")
    if version != CHECKPOINT_VERSION:
        raise BadVersionError(f"unsupported checkpoint version {version}")
    (stage_byte,) = unpack("<B", "stage")
    if stage_byte >= len(STAGES):
        raise FileFormatError(f"unknown stage byte {stage_byte}")
    step, count = unpack("<QI", "step and tensor count")
    tensors = {}
    for _ in range(count):
        (name_len,) = unpack("<H", "tensor name length")
        try:
            name = str(take(name_len, "tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"checkpoint tensor name is not UTF-8: {exc}") from exc
        if name in tensors:
            raise FileFormatError(f"checkpoint lists tensor {name} twice")
        (rank,) = unpack("<B", "tensor rank")
        dims = unpack(f"<{rank}I", "tensor dims")
        payload = take(4 * math.prod(dims), f"tensor {name} payload")
        try:  # numpy refuses over 64 dims, or a shape whose size overflows
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
        except ValueError as exc:
            raise FileFormatError(f"checkpoint tensor {name} has no usable shape: {exc}") from exc
    stored_fp = bytes(take(16, "fingerprint"))
    if pos != len(blob):
        raise FileFormatError("trailing bytes after checkpoint fingerprint")
    if _ARCH_TENSOR not in tensors:
        raise FileFormatError("checkpoint lacks its architecture record")
    config = _config_from_arch(tensors.pop(_ARCH_TENSOR))
    if config.fingerprint() != stored_fp:
        raise FingerprintMismatchError("checkpoint fingerprint does not match its stored architecture")
    expected = _param_shapes(config, "sub0.front.0.W" in tensors)
    have = {name: arr.shape for name, arr in tensors.items()}
    if have != expected:
        missing = sorted(expected.keys() - have.keys())
        extra = sorted(have.keys() - expected.keys())
        misshapen = sorted(n for n in expected.keys() & have.keys() if have[n] != expected[n])
        raise FileFormatError(
            f"checkpoint parameter set malformed; missing={missing} extra={extra} misshapen={misshapen}"
        )
    return Model(config, tensors), CheckpointMeta(STAGES[stage_byte], step, stored_fp)
