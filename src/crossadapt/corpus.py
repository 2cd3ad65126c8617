"""Synthetic multi-domain corpus: generation, transforms, splits, trials, I/O.

Speakers are latent identity vectors projected into feature space by one
fixed random matrix. A clean utterance is the speaker's projection plus a
small per-utterance session offset plus AR(1) frame noise, so frames have
temporal structure for the pooling layer to exploit. Every clean utterance
is rendered in parallel into each target domain (same content, different
channel), which makes domain shift the only difference between domains.

Feature files are a small binary format (magic ``XDAF``); the manifest is a
line-oriented TSV with one header line carrying the seed and a fingerprint
of the generation config.
"""

from __future__ import annotations

import hashlib
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
    UnknownDomainError,
)
from .rng import substream

FEATURE_MAGIC = b"XDAF"
FEATURE_VERSION = 1
SPLITS = ("train", "enroll", "test")
DOMAIN_KINDS = ("clean", "channel", "farfield", "noisy")

__all__ = [
    "DomainSpec",
    "ManifestRecord",
    "CorpusManifest",
    "TrialPair",
    "gen_corpus",
    "apply_domain_transform",
    "split_counts",
    "make_trials",
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
class ManifestRecord:
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
        path = Path(path)
        lines = [f"#crossadapt-corpus\tseed={self.seed}\tfingerprint={self.fingerprint}\n"]
        for r in self.records:
            lines.append(
                f"{r.utt_id}\t{r.speaker_id}\t{r.domain_id}\t{r.split}\t{r.relpath}\t{r.frames}\n"
            )
        path.write_text("".join(lines), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"cannot read corpus manifest {path}: {exc}") from exc
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
        records = []
        for ln in lines[1:]:
            if not ln.strip():
                continue
            try:
                utt_id, speaker, domain, split, relpath, frames = ln.split("\t")
                records.append(
                    ManifestRecord(utt_id, int(speaker), int(domain), split, relpath, int(frames))
                )
            except ValueError as exc:  # wrong field count or a non-integer field
                raise FileFormatError(f"malformed manifest record: {ln!r}") from exc
        speakers = {r.speaker_id for r in records}
        return cls(seed, len(speakers), fingerprint, records)

    def verify_files(self, root) -> None:
        """Check every referenced feature file exists with the declared length."""
        root = Path(root)
        for r in self.records:
            fp = root / r.relpath
            if not fp.exists():
                raise StructuralError(f"manifest references missing file {fp}")
            frames, _ = read_feature_header(fp)
            if frames != r.frames:
                raise StructuralError(
                    f"{fp} holds {frames} frames, manifest declares {r.frames}"
                )


# -- feature file format --------------------------------------------------------


def write_features(path, features) -> None:
    """Write a frame matrix as magic/version/T/D header plus f32 payload."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise StructuralError("features must be a nonempty [T x D] matrix")
    if not np.all(np.isfinite(features)):
        raise ContractError("refusing to write non-finite features")
    t, d = features.shape
    payload = features.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, d))
        fh.write(payload)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"feature file ended inside {what}")
    return data


def _read_header(fh, path):
    magic = fh.read(4)
    if magic != FEATURE_MAGIC:
        raise BadMagicError(f"{path} is not a feature file (magic {magic!r})")
    version, t, d = struct.unpack("<III", _read_exact(fh, 12, "header"))
    if version != FEATURE_VERSION:
        raise BadVersionError(f"unsupported feature file version {version}")
    return t, d


def _open_features(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FileFormatError(f"cannot read feature file {path}: {exc}") from exc


def read_feature_header(path):
    """Frame and dim counts from the header alone; payload left unread."""
    with _open_features(path) as fh:
        return _read_header(fh, path)


def read_features(path) -> np.ndarray:
    """Read a feature file back as float64 [T x D]."""
    with _open_features(path) as fh:
        t, d = _read_header(fh, path)
        payload = _read_exact(fh, 4 * t * d, "payload")
        if fh.read(1):
            raise FileFormatError(f"{path} has trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(t, d).astype(np.float64)


# -- domain transforms ----------------------------------------------------------


def apply_domain_transform(features, spec: DomainSpec, noise_stream=None) -> np.ndarray:
    """Render clean features into one domain's recording condition."""
    x = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ContractError("domain transform requires finite input")
    if spec.kind == "clean":
        return x.copy()
    if spec.kind == "channel":
        gain = np.asarray(spec.channel_gain)
        if gain.shape != (x.shape[1],):
            raise StructuralError(
                f"channel gain has {gain.size} dims, features have {x.shape[1]}"
            )
        return x * gain[None, :]
    if spec.kind == "farfield":
        if spec.smear_width > x.shape[0]:
            raise ContractError(
                f"smear_width {spec.smear_width} exceeds {x.shape[0]} frames"
            )
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


def _ar1_noise(rng, frames: int, dim: int, sd: float, rho: float) -> np.ndarray:
    w = rng.normal(size=(frames, dim))
    out = np.empty((frames, dim))
    out[0] = sd * w[0]
    scale = sd * np.sqrt(1.0 - rho * rho)
    for t in range(1, frames):
        out[t] = rho * out[t - 1] + scale * w[t]
    return out


def _gen_fingerprint(num_speakers, utts_per_speaker, frames_per_utt, domains, consts) -> str:
    lines = [
        f"num_speakers={num_speakers}",
        f"utts_per_speaker={utts_per_speaker}",
        f"frames_per_utt={frames_per_utt}",
    ]
    lines += [f"{k}={v:.10g}" for k, v in sorted(consts.items())]
    lines += [f"domain{{{i}}}={spec.describe()}" for i, spec in enumerate(domains)]
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def gen_corpus(
    out_dir,
    seed: int,
    num_speakers: int,
    utts_per_speaker: int,
    frames_per_utt: int,
    domains,
    input_dim: int = 20,
    identity_dim: int = 16,
    id_scale: float = 1.0,
    sess_scale: float = 0.2,
    frame_sd: float = 0.5,
    ar_rho: float = 0.7,
) -> CorpusManifest:
    """Generate the corpus files plus manifest under ``out_dir``.

    Deterministic per (seed, utterance): every random draw comes from a
    substream derived from the utterance identity, so generation order does
    not affect the bytes produced.
    """
    if num_speakers < 2:
        raise ContractError("need at least 2 speakers")
    if utts_per_speaker < 1 or frames_per_utt < 1:
        raise ContractError("utterance and frame counts must be positive")
    if not domains or domains[0].kind != "clean":
        raise ContractError("domain 0 must be the clean source domain")
    if not 0.0 <= ar_rho < 1.0:
        raise ContractError("AR(1) coefficient must lie in [0, 1)")
    consts = {
        "input_dim": input_dim,
        "identity_dim": identity_dim,
        "id_scale": id_scale,
        "sess_scale": sess_scale,
        "frame_sd": frame_sd,
        "ar_rho": ar_rho,
    }
    fingerprint = _gen_fingerprint(num_speakers, utts_per_speaker, frames_per_utt, domains, consts)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    proj = substream(seed, "proj").normal(size=(identity_dim, input_dim)) / np.sqrt(identity_dim)
    train_n, enroll_n, _ = split_counts(utts_per_speaker)
    records = []
    for s in range(num_speakers):
        identity = id_scale * substream(seed, "speaker", s).normal(size=identity_dim)
        base = identity @ proj
        for u in range(utts_per_speaker):
            stem = f"s{s:03d}_u{u:03d}"
            split = "train" if u < train_n else "enroll" if u < train_n + enroll_n else "test"
            utt_rng = substream(seed, "utt", stem)
            session = sess_scale * utt_rng.normal(size=input_dim)
            clean = base + session + _ar1_noise(utt_rng, frames_per_utt, input_dim, frame_sd, ar_rho)
            for d, spec in enumerate(domains):
                noise = substream(seed, "noise", stem, d)
                feats = apply_domain_transform(clean, spec, noise)
                utt_id = f"{stem}_d{d}"
                relpath = f"d{d}/{utt_id}.xdaf"
                fp = out_dir / relpath
                fp.parent.mkdir(parents=True, exist_ok=True)
                write_features(fp, feats)
                records.append(ManifestRecord(utt_id, s, d, split, relpath, frames_per_utt))
    manifest = CorpusManifest(seed, num_speakers, fingerprint, records)
    manifest.save(out_dir / "manifest.tsv")
    return manifest


# -- trials -----------------------------------------------------------------------


def make_trials(manifest: CorpusManifest, domain_id: int):
    """Exhaustive enroll x test trials within one domain, lexicographic order."""
    if domain_id < 0 or domain_id >= manifest.num_domains:
        raise UnknownDomainError(f"domain {domain_id} not present in manifest")
    enroll = sorted(manifest.select(domain_id, "enroll"), key=lambda r: r.utt_id)
    test = sorted(manifest.select(domain_id, "test"), key=lambda r: r.utt_id)
    if not enroll or not test:
        raise ContractError(f"domain {domain_id} lacks enroll or test utterances")
    return [
        TrialPair(e.utt_id, t.utt_id, e.speaker_id == t.speaker_id)
        for e in enroll
        for t in test
    ]
