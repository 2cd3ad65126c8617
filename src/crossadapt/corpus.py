"""Synthetic multi-domain corpus: generation, transforms, splits, I/O.

Speakers are latent identity vectors projected into feature space by one
fixed random matrix. A clean utterance is the speaker's projection plus a
small per-utterance session offset plus AR(1) frame noise, so frames have
temporal structure for the pooling layer to exploit. Every clean utterance
is rendered in parallel into each target domain (same content, different
channel), which makes domain shift the only difference between domains.

Feature files are a small binary format (magic ``XDAF``) with a float32
payload; the manifest is a line-oriented TSV with one header line carrying
the seed and a fingerprint of the generation config.  A feature file holds
the frames of every manifest record that names it, stacked in manifest
order, so a record's rows start where those of the previous record naming
that file end; a file of one record is the special case.  ``gen_corpus``
writes one file per domain and split, ``d<N>/<split>.xdaf``.
``CorpusManifest.read_frames`` reads each file a caller needs once and
returns each record's rows as a read-only float32 view, so a store of them
holds 4 bytes per value; frames become float64 only inside the trunk
(``model.Model._groups_forward``), and that cast is exact.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ContractError,
    FileFormatError,
    StructuralError,
    TruncatedFileError,
)
from .fileio import read_sized, read_text, write_artifact
from .rng import substream

FEATURE_MAGIC = b"XDAF"
FEATURE_VERSION = 1
FEATURE_HEADER = 16  # magic, then version, T and D as <u4
SPLITS = ("train", "enroll", "test")
DOMAIN_KINDS = ("clean", "channel", "farfield", "noisy")

__all__ = [
    "CorpusConfig",
    "DomainSpec",
    "ManifestRecord",
    "CorpusManifest",
    "TrialPair",
    "gen_corpus",
    "apply_domain_transform",
    "split_counts",
    "write_features",
    "read_features",
    "read_feature_header",
]


# -- domain specs -------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Recording-condition recipe for one domain.

    Only the fields relevant to ``kind`` are read: ``channel_gain`` for
    channel, ``atten``/``smear_width`` for farfield, ``snr_db`` for noisy.
    """

    kind: str
    channel_gain: tuple = ()
    smear_width: int = 1
    snr_db: float = 0.0
    atten: float = 0.5

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ContractError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "channel_gain", tuple(float(g) for g in self.channel_gain))
        if self.kind == "channel":
            if not self.channel_gain or any(g <= 0 for g in self.channel_gain):
                raise ContractError("channel domain needs a positive per-dim gain vector")
        if self.kind == "farfield":
            if self.smear_width < 1:
                raise ContractError("smear_width must be at least 1 frame")
            if self.atten <= 0:
                raise ContractError("farfield attenuation must be positive")
        if not np.isfinite(self.snr_db):
            raise ContractError("snr_db must be finite")

    def check_shape(self, frames: int, dim: int) -> None:
        """Refuse utterances of ``frames`` x ``dim`` this recipe cannot render."""
        if self.kind == "channel" and len(self.channel_gain) != dim:
            raise StructuralError(f"channel gain has {len(self.channel_gain)} dims, features have {dim}")
        if self.kind == "farfield" and self.smear_width > frames:
            raise ContractError(f"smear_width {self.smear_width} exceeds {frames} frames")

    def describe(self) -> str:
        if self.kind == "channel":
            gains = ",".join(f"{g:.6g}" for g in self.channel_gain)
            return f"channel:gain=[{gains}]"
        if self.kind == "farfield":
            return f"farfield:atten={self.atten:.6g},smear={self.smear_width}"
        if self.kind == "noisy":
            return f"noisy:snr_db={self.snr_db:.6g}"
        return "clean"


@dataclass(frozen=True)
class CorpusConfig:
    """A generation recipe; ``config.SCHEMA`` holds the default of each field."""

    num_speakers: int
    utts_per_speaker: int
    frames_per_utt: int
    input_dim: int
    identity_dim: int
    id_scale: float
    sess_scale: float
    frame_sd: float
    ar_rho: float
    domains: tuple


# the recipe's constants, each written into the fingerprint as :.10g
_RECIPE_CONSTANTS = ("input_dim", "identity_dim", "id_scale", "sess_scale", "frame_sd", "ar_rho")


@dataclass(frozen=True)
class ManifestRecord:
    """One utterance. Its ``frames`` rows lie in the feature file at
    ``relpath``, after the rows of the records before it that name the
    same file."""

    utt_id: str
    speaker_id: int
    domain_id: int
    split: str
    relpath: str
    frames: int


@dataclass(frozen=True)
class TrialPair:
    enroll_utt: str
    test_utt: str
    is_target: bool


@dataclass
class CorpusManifest:
    seed: int
    num_speakers: int
    fingerprint: str
    records: list = field(default_factory=list)

    @property
    def num_domains(self) -> int:
        return max(r.domain_id for r in self.records) + 1 if self.records else 0

    def select(self, domain_id=None, split=None):
        out = self.records
        if domain_id is not None:
            out = [r for r in out if r.domain_id == domain_id]
        if split is not None:
            out = [r for r in out if r.split == split]
        return out

    def save(self, path) -> None:
        lines = [f"#crossadapt-corpus\tseed={self.seed}\tfingerprint={self.fingerprint}\n"]
        for r in self.records:
            lines.append(
                f"{r.utt_id}\t{r.speaker_id}\t{r.domain_id}\t{r.split}\t{r.relpath}\t{r.frames}\n"
            )
        write_artifact(path, ["".join(lines).encode("utf-8")], "corpus manifest")

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        lines = read_text(path, "corpus manifest").splitlines()
        if not lines or not lines[0].startswith("#crossadapt-corpus"):
            raise FileFormatError(f"{path} is not a corpus manifest")
        try:
            header = dict(part.split("=", 1) for part in lines[0].split("\t")[1:])
            seed = int(header["seed"])
            fingerprint = header["fingerprint"]
        except KeyError as exc:
            raise FileFormatError(f"manifest header missing field {exc}") from exc
        except ValueError as exc:
            raise FileFormatError(f"malformed manifest header: {lines[0]!r}") from exc
        records, seen, last = [], set(), {}
        for ln in lines[1:]:
            if not ln.strip():
                continue
            try:
                utt_id, speaker, domain, split, relpath, frames = ln.split("\t")
                records.append(
                    ManifestRecord(utt_id, int(speaker), int(domain), split, relpath, int(frames))
                )
                r = records[-1]  # a record without frames would shift the rows of those after it
                if r.frames < 1 or min(r.speaker_id, r.domain_id) < 0 or r.split not in SPLITS:
                    raise ValueError
            except ValueError as exc:  # wrong field count, a non-integer field or a value out of range
                raise FileFormatError(f"malformed manifest record: {ln!r}") from exc
            if utt_id in seen:
                raise FileFormatError(f"manifest lists utterance {utt_id!r} twice")
            seen.add(utt_id)
            order = (r.speaker_id, len(utt_id), utt_id)  # generation order: s999 before s1000
            if order < last.setdefault(relpath, order):
                raise FileFormatError(f"manifest lists {utt_id!r} after a later utterance of {relpath}")
            last[relpath] = order
            # a feature file lies under the corpus root
            if relpath.startswith("/") or ".." in relpath.split("/"):
                raise FileFormatError(f"manifest path {relpath!r} leaves the corpus")
        speakers = {r.speaker_id for r in records}
        return cls(seed, len(speakers), fingerprint, records)

    def _layout(self):
        """Each record's first row in its feature file, by utterance, and
        each file's frame total, by path in order of first mention."""
        starts, totals = {}, {}
        for r in self.records:
            starts[r.utt_id] = totals.get(r.relpath, 0)
            totals[r.relpath] = starts[r.utt_id] + r.frames
        return starts, totals

    def verify_files(self, root) -> None:
        """Check every named feature file exists, and that its header
        declares the frames of all the records naming it and agrees with the
        file's size; each file is opened once and its payload left unread."""
        root = os.fspath(root)
        for relpath, total in self._layout()[1].items():
            path = os.path.join(root, relpath)
            try:
                frames, _ = read_feature_header(path)
            except FileFormatError as exc:
                if isinstance(exc.__cause__, FileNotFoundError):
                    raise StructuralError(f"manifest references missing file {path}") from exc
                raise
            _check_frames(path, frames, total)

    def read_frames(self, root, records, input_dim: int) -> dict:
        """``utt_id -> frames`` for ``records`` (records of this manifest), in
        their order, each a read-only float32 view of its rows.  Every file
        they name is read once, and refused unless it holds the frames of
        all the records that name it, ``input_dim`` values a frame."""
        root = os.fspath(root)
        starts, totals = self._layout()
        files = {}
        for r in records:
            if r.relpath not in files:
                path = os.path.join(root, r.relpath)
                frames = files[r.relpath] = read_features(path)
                _check_frames(path, len(frames), totals[r.relpath])
                if frames.shape[1] != input_dim:
                    raise StructuralError(f"{path} holds frames of {frames.shape[1]} values, "
                                          f"the model takes {input_dim}")
        return {r.utt_id: files[r.relpath][starts[r.utt_id] : starts[r.utt_id] + r.frames]
                for r in records}


def _check_frames(path, frames: int, declared: int) -> None:
    if frames != declared:
        raise StructuralError(f"{path} holds {frames} frames, its manifest records declare {declared}")


# -- feature file format --------------------------------------------------------


def write_features(path, features) -> None:
    """Write a frame matrix as magic/version/T/D header plus f32 payload.

    A float32 array is written as it is; anything else is cast to float32
    first, and it is the values written that must be finite, so a frame
    that overflows float32 is refused."""
    with np.errstate(over="ignore"):
        features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2 or features.shape[0] < 1:
        raise StructuralError("features must be a nonempty [T x D] matrix")
    if not np.all(np.isfinite(features)):
        raise ContractError("refusing to write non-finite features")
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, *features.shape)
    write_artifact(path, [header, features], "feature file")


def _read(path, body: bool):
    """A feature file's (T, D) and, with ``body``, its f32 payload bytes."""

    def payload_len(header):
        if header[:4] != FEATURE_MAGIC:
            raise BadMagicError(f"{path} is not a feature file (magic {header[:4]!r})")
        if len(header) < FEATURE_HEADER:
            raise TruncatedFileError(f"{path} ended inside the feature header")
        version, t, d = struct.unpack_from("<III", header, 4)
        if version != FEATURE_VERSION:
            raise BadVersionError(f"unsupported feature file version {version}")
        return 4 * t * d

    header, payload = read_sized(path, "feature file", FEATURE_HEADER, payload_len, body)
    return struct.unpack_from("<II", header, 8), payload


def read_feature_header(path):
    """Frame and dim counts from the header, checked against the file's size;
    the payload is left unread."""
    return _read(path, body=False)[0]


def read_features(path) -> np.ndarray:
    """Read a feature file back as its float32 [T x D] frames, a read-only
    view of the payload; ``CorpusManifest.read_frames`` splits them into
    records."""
    shape, payload = _read(path, body=True)
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


# -- domain transforms ----------------------------------------------------------


def apply_domain_transform(features, spec: DomainSpec, noise_stream=None) -> np.ndarray:
    """Render clean features into one domain's recording condition."""
    x = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ContractError("domain transform requires finite input")
    spec.check_shape(*x.shape)
    if spec.kind == "clean":
        return x.copy()
    if spec.kind == "channel":
        return x * np.asarray(spec.channel_gain)[None, :]
    if spec.kind == "farfield":
        y = spec.atten * x
        if spec.smear_width == 1:
            return y
        # trailing moving average: frame t mixes the last smear_width frames,
        # shorter windows at the start
        csum = np.vstack([np.zeros((1, y.shape[1])), np.cumsum(y, axis=0)])
        t = np.arange(1, y.shape[0] + 1)
        lo = np.maximum(t - spec.smear_width, 0)
        return (csum[t] - csum[lo]) / (t - lo)[:, None]
    # noisy: additive white Gaussian sized to the requested signal/noise ratio
    if noise_stream is None:
        raise ContractError("noisy transform needs a noise stream")
    power = float(np.mean(x * x))
    sigma = np.sqrt(power * 10.0 ** (-spec.snr_db / 10.0))
    return x + sigma * noise_stream.normal(size=x.shape)


# -- generation -------------------------------------------------------------------


def split_counts(utts_per_speaker: int):
    """7:1:2 train/enroll/test partition; integer remainder goes to train."""
    enroll = utts_per_speaker // 10
    test = 2 * utts_per_speaker // 10
    return utts_per_speaker - enroll - test, enroll, test


def _ar1_noise(w, sd: float, rho: float) -> np.ndarray:
    """Turn standard normal draws ``w`` [T, ..., D] into AR(1) noise with
    stationary sd, in place; the recurrence runs over frames, for all other
    rows at once."""
    w[0] *= sd
    scale = sd * np.sqrt(1.0 - rho * rho)
    for t in range(1, len(w)):
        w[t] = rho * w[t - 1] + scale * w[t]
    return w


def _gen_fingerprint(recipe: CorpusConfig) -> str:
    lines = [f"{k}={getattr(recipe, k)}" for k in ("num_speakers", "utts_per_speaker", "frames_per_utt")]
    lines += [f"{k}={getattr(recipe, k):.10g}" for k in sorted(_RECIPE_CONSTANTS)]
    lines += [f"domain{{{i}}}={spec.describe()}" for i, spec in enumerate(recipe.domains)]
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def _clean_frames(seed: int, recipe: CorpusConfig, bases, utts) -> np.ndarray:
    """Clean frames [N x T x D] of the ``(speaker, stem)`` utterances
    ``utts``.  Each utterance draws its session offset, then its frame
    noise, from its own stream, and the noise recurrence is elementwise
    per utterance, so an utterance's frames do not depend on the others."""
    out = np.empty((len(utts), recipe.frames_per_utt, recipe.input_dim))
    offsets = np.empty((len(utts), recipe.input_dim))
    for i, (s, stem) in enumerate(utts):
        rng = substream(seed, "utt", stem)
        offsets[i] = bases[s] + recipe.sess_scale * rng.normal(size=recipe.input_dim)
        out[i] = rng.normal(size=out.shape[1:])
    _ar1_noise(out.transpose(1, 0, 2), recipe.frame_sd, recipe.ar_rho)
    out += offsets[:, None, :]
    return out


def gen_corpus(out_dir, seed: int, recipe: CorpusConfig) -> CorpusManifest:
    """Generate the corpus files plus manifest under ``out_dir``.

    Deterministic per (seed, utterance): every random draw comes from a
    substream derived from the utterance identity, so generation order does
    not affect the bytes produced.  Each domain and split with utterances
    gets one feature file, ``d<N>/<split>.xdaf``, holding its utterances in
    manifest order: speaker, then utterance.  Splits are rendered one at a
    time, so generation holds one split's clean frames and one file's
    frames, never the corpus.  A recipe whose domains cannot render its
    utterances is refused before anything in ``out_dir`` is touched.  An
    old manifest there is removed before the first feature file is
    written, and the new one is written last, so an interrupted run leaves
    no manifest.
    """
    if recipe.num_speakers < 2:
        raise ContractError("need at least 2 speakers")
    if recipe.utts_per_speaker < 1 or recipe.frames_per_utt < 1:
        raise ContractError("utterance and frame counts must be positive")
    if not recipe.domains or recipe.domains[0].kind != "clean":
        raise ContractError("domain 0 must be the clean source domain")
    if not 0.0 <= recipe.ar_rho < 1.0:
        raise ContractError("AR(1) coefficient must lie in [0, 1)")
    for spec in recipe.domains:
        spec.check_shape(recipe.frames_per_utt, recipe.input_dim)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # a manifest beside partly rewritten feature files would load as a corpus
        (out_dir / "manifest.tsv").unlink(missing_ok=True)
        for d in range(len(recipe.domains)):
            (out_dir / f"d{d}").mkdir(exist_ok=True)
    except OSError as exc:
        raise FileFormatError(f"cannot write a corpus under {out_dir}: {exc}") from exc

    dim, id_dim, frames = recipe.input_dim, recipe.identity_dim, recipe.frames_per_utt
    proj = substream(seed, "proj").normal(size=(id_dim, dim)) / np.sqrt(id_dim)
    bases = [(recipe.id_scale * substream(seed, "speaker", s).normal(size=id_dim)) @ proj
             for s in range(recipe.num_speakers)]
    train_n, enroll_n, _ = split_counts(recipe.utts_per_speaker)
    utts = [(s, f"s{s:03d}_u{u:03d}",
             "train" if u < train_n else "enroll" if u < train_n + enroll_n else "test")
            for s in range(recipe.num_speakers) for u in range(recipe.utts_per_speaker)]
    records = [ManifestRecord(f"{stem}_d{d}", s, d, split, f"d{d}/{split}.xdaf", frames)
               for s, stem, split in utts for d in range(len(recipe.domains))]
    for split in SPLITS:
        in_split = [(s, stem) for s, stem, of in utts if of == split]
        if not in_split:
            continue
        clean = _clean_frames(seed, recipe, bases, in_split)
        rendered = np.empty(clean.shape, dtype=np.float32)
        for d, spec in enumerate(recipe.domains):
            with np.errstate(over="ignore"):  # write_features refuses what overflows float32
                for i, (_, stem) in enumerate(in_split):
                    # only a noisy domain draws; building a stream draws nothing
                    noise = substream(seed, "noise", stem, d) if spec.kind == "noisy" else None
                    rendered[i] = apply_domain_transform(clean[i], spec, noise)
            write_features(out_dir / f"d{d}" / f"{split}.xdaf", rendered.reshape(-1, dim))
    manifest = CorpusManifest(seed, recipe.num_speakers, _gen_fingerprint(recipe), records)
    manifest.save(out_dir / "manifest.tsv")
    return manifest
