"""The embedding network and its checkpoint format.

Architecture: a shared trunk made of four freeze-controllable dense layer
groups with symmetric temporal context (edge-replicated), followed by a
learnable-dictionary pooling layer that turns a variable-length frame
sequence into a fixed utterance embedding.  On top of the trunk sit a
single softmax head (used before adaptation) and, once materialized, one
four-layer subnet plus one classifier per target domain.  Each subnet
splits into a ``front`` half (where per-domain agreement is encouraged)
and a ``back`` half (the alignment/embedding space).

All forward passes return caches sufficient for exact hand-derived
backprop; every backward here is covered by ``numkit.grad_check``.
"""

import functools
import hashlib
import io
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
from .numkit import ParamGroup
from .rng import substream

CHECKPOINT_MAGIC = b"XDCK"
CHECKPOINT_VERSION = 1
STAGES = ("pretrain", "finetune", "adapt")
_STAGE_BYTE = {name: i for i, name in enumerate(STAGES)}

NUM_GROUPS = 4
_ARCH_TENSOR = "arch"
_ARCH_LEN = 17


@dataclass(frozen=True)
class ExtractorConfig:
    """Shared trunk: four dense layer groups over spliced frame context."""

    input_dim: int
    group_dims: tuple
    context: tuple

    def __post_init__(self):
        object.__setattr__(self, "group_dims", tuple(int(d) for d in self.group_dims))
        object.__setattr__(self, "context", tuple(int(c) for c in self.context))
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
        object.__setattr__(self, "front_dims", tuple(int(d) for d in self.front_dims))
        object.__setattr__(self, "back_dims", tuple(int(d) for d in self.back_dims))
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
    vals = [int(round(v)) for v in vec]
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
def _scatter_index(t: int, context: int, d: int) -> np.ndarray:
    """Flat position in the [t x d] input of each spliced value, in (t, j, d) order."""
    flat = (_context_index(t, context)[:, :, None] * d + np.arange(d)).ravel()
    flat.flags.writeable = False
    return flat


def splice_forward(x, context: int):
    """Stack each frame with +-context neighbours, replicating edges."""
    t = x.shape[0]
    if context == 0:
        return x, (x.shape, None)
    idx = _context_index(t, context)
    return x[idx].reshape(t, -1), (x.shape, idx)


def splice_backward(dy, cache):
    shape, idx = cache
    if idx is None:
        return dy
    # bincount adds each input value's slots from 0.0 in (t, j, d) order, the
    # order np.add.at uses, so the sums are bit-identical to a scatter-add
    flat = _scatter_index(shape[0], idx.shape[1] // 2, shape[1])
    return np.bincount(flat, weights=dy.ravel(), minlength=shape[0] * shape[1]).reshape(shape)


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
    """Pool frames [T x D] into one embedding [K*D] by soft assignment.

    Each frame is softly assigned to dictionary components with weights
    softmax_k(-s_k * ||f_t - d_k||^2), s_k = exp(log_scale_k); component k
    aggregates the weighted mean residual (f_t - d_k).  By construction the
    result is invariant to any permutation of the frames.
    """
    if frames.shape[0] < 1:
        raise ContractError("dictionary pooling needs at least one frame")
    if frames.shape[1] != dictionary.shape[1]:
        raise StructuralError("frame dim does not match dictionary component dim")
    s = np.exp(log_scale)
    resid = frames[:, None, :] - dictionary[None, :, :]  # [T,K,D]
    sqdist = np.einsum("tkd,tkd->tk", resid, resid)
    logits = -s[None, :] * sqdist
    logits = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    # frame sums run over sorted summands so the pooled embedding is
    # bit-identical under any permutation of the input frames
    mass = np.sort(w, axis=0).sum(axis=0)  # [K]
    # per-row softmax is strictly positive, but a component every frame is far
    # from can underflow to 0 mass; floor it so starved components pool to ~0
    mass = np.maximum(mass, np.finfo(np.float64).tiny)
    agg = np.sort(w[:, :, None] * resid, axis=0).sum(axis=0) / mass[:, None]
    # normalized per-component weights (each column sums to 1, or to 0 for a
    # fully starved component); backward works in this scale so that 1/mass
    # never appears as a bare factor that could overflow
    u = w / mass[None, :]
    cache = (resid, sqdist, w, u, agg, s)
    return agg.reshape(-1), cache


def lde_pool_backward(dout, cache):
    """Gradients of the pooled embedding w.r.t. frames, dictionary, log_scale."""
    resid, sqdist, w, u, agg, s = cache
    de = dout.reshape(agg.shape)  # [K,D]
    # weight gradient combines the numerator and the normalizing-mass paths;
    # the mass division is folded into u so starved components get gradient 0
    gw = np.einsum("kd,tkd->tk", de, resid) - np.einsum("kd,kd->k", de, agg)[None, :]
    # softmax backward per frame
    gl = u * gw - w * (u * gw).sum(axis=1, keepdims=True)
    dlog_scale = -s * np.einsum("tk,tk->k", gl, sqdist)
    dresid = u[:, :, None] * de[None, :, :] - 2.0 * (s[None, :] * gl)[:, :, None] * resid
    dframes = dresid.sum(axis=1)
    ddict = -dresid.sum(axis=0)
    return dframes, ddict, dlog_scale


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

    def extractor_forward(self, x, mode: str = "train"):
        """Run frames [T x input_dim] through the four groups; T is preserved."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise StructuralError("extractor input must be a nonempty [T x input_dim] matrix")
        if x.shape[1] != self.config.extractor.input_dim:
            raise StructuralError(
                f"extractor expects feature dim {self.config.extractor.input_dim}, got {x.shape[1]}"
            )
        caches = [] if mode == "train" else None
        h = x
        for g in range(NUM_GROUPS):
            name = f"g{g + 1}"
            spliced, sp_cache = splice_forward(h, self.config.extractor.context[g])
            pre, af_cache = affine_forward(spliced, self.params[f"{name}.W"], self.params[f"{name}.b"])
            h, relu_cache = relu_forward(pre)
            if mode == "train":
                caches.append((sp_cache, af_cache, relu_cache))
        return h, caches

    def extractor_backward(self, dh, caches, grads, down_to_group: int = 1):
        """Accumulate extractor parameter grads; descend only to ``down_to_group``."""
        for g in range(NUM_GROUPS - 1, down_to_group - 2, -1):
            name = f"g{g + 1}"
            sp_cache, af_cache, relu_cache = caches[g]
            dpre = relu_backward(dh, relu_cache)
            dsp, dw, db = affine_backward(dpre, af_cache)
            _accum(grads, f"{name}.W", dw)
            _accum(grads, f"{name}.b", db)
            if g == down_to_group - 1:
                break
            dh = splice_backward(dsp, sp_cache)
        return None

    def encode(self, x, mode: str = "train"):
        """Trunk pass: frames -> pooled utterance embedding [K*D]."""
        h, ex_cache = self.extractor_forward(x, mode)
        emb, lde_cache = lde_pool(h, self.params["lde.dict"], self.params["lde.log_scale"])
        return emb, (ex_cache, lde_cache)

    def encode_backward(self, demb, cache, grads, down_to_group: int = 1):
        ex_cache, lde_cache = cache
        dframes, ddict, dlog = lde_pool_backward(demb, lde_cache)
        _accum(grads, "lde.dict", ddict)
        _accum(grads, "lde.log_scale", dlog)
        self.extractor_backward(dframes, ex_cache, grads, down_to_group)

    # -- per-domain blocks --------------------------------------------------

    def _check_domain(self, domain: int) -> None:
        if not self.has_subnets:
            raise StructuralError("model has no domain subnets; run the adaptation stage first")
        if not 0 <= domain < self.config.subnet.num_domains:
            raise UnknownDomainError(
                f"domain {domain} outside configured range 0..{self.config.subnet.num_domains - 1}"
            )

    def subnet_forward(self, emb, domain: int, stage: str = "full", mode: str = "train"):
        """Domain subnet on embeddings [n x K*D].

        ``stage='front'`` stops after the two front layers (the space where
        cross-domain agreement is measured); ``'full'`` continues through the
        back half, whose final layer has no activation.  The full-stage cache
        exposes the front output under ``cache['front']``.
        """
        self._check_domain(domain)
        if stage not in ("front", "full"):
            raise ContractError(f"unknown subnet stage {stage!r}")
        emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
        layers = [f"sub{domain}.front.0", f"sub{domain}.front.1"]
        if stage == "full":
            layers += [f"sub{domain}.back.0", f"sub{domain}.back.1"]
        h = emb
        steps = []
        front = None
        for i, layer in enumerate(layers):
            pre, af_cache = affine_forward(h, self.params[f"{layer}.W"], self.params[f"{layer}.b"])
            last = i == 3
            if last:
                h, relu_cache = pre, None
            else:
                h, relu_cache = relu_forward(pre)
            if i == 1:
                front = h
            if mode == "train":
                steps.append((layer, af_cache, relu_cache))
        if stage == "front":
            return h, {"steps": steps, "front": h}
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
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"checkpoint truncated while reading {what}")
    return data


def load_checkpoint(path, expected_config: ModelConfig = None):
    """Read a checkpoint; returns ``(Model, CheckpointMeta)``.

    The stored fingerprint is verified against the architecture embedded in
    the file, and against ``expected_config`` when one is supplied.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FileFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise BadMagicError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise BadVersionError(f"unsupported checkpoint version {version}")
        (stage_byte,) = struct.unpack("<B", _read_exact(fh, 1, "stage"))
        if stage_byte >= len(STAGES):
            raise FileFormatError(f"unknown stage byte {stage_byte}")
        (step,) = struct.unpack("<Q", _read_exact(fh, 8, "step"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, "tensor rank"))
            dims = [struct.unpack("<I", _read_exact(fh, 4, "tensor dims"))[0] for _ in range(rank)]
            n_elem = int(np.prod(dims)) if dims else 1
            payload = _read_exact(fh, 4 * n_elem, f"tensor {name} payload")
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float64)
            tensors[name] = arr
        stored_fp = _read_exact(fh, 16, "fingerprint")
        if fh.read(1):
            raise FileFormatError("trailing bytes after checkpoint fingerprint")
    if _ARCH_TENSOR not in tensors:
        raise FileFormatError("checkpoint lacks its architecture record")
    config = _config_from_arch(tensors.pop(_ARCH_TENSOR))
    if config.fingerprint() != stored_fp:
        raise FingerprintMismatchError("checkpoint fingerprint does not match its stored architecture")
    if expected_config is not None and expected_config.fingerprint() != stored_fp:
        raise FingerprintMismatchError("checkpoint was produced under a different configuration")
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
