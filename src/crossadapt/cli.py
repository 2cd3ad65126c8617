"""Command-line entry points for the adaptation workbench.

Subcommands mirror the pipeline: gen-corpus, pretrain, finetune, adapt,
evaluate, report. Exit code 0 on success, 2 when a contract or file-format
check fails, 3 when training hits a numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import pipeline
from .config import load_config
from .corpus import CorpusManifest, gen_corpus
from .errors import ContractError, NumericError
from .evaluation import (
    EvalReport,
    compare_domains,
    evaluate_domain,
    evaluate_model,
    format_table,
    read_report,
    write_report,
)
from .model import load_checkpoint

log = logging.getLogger("crossadapt")


def _config_of(args):
    return load_config(args.config, args.set, args.seed)


def _add_config_flags(sub):
    sub.add_argument("--config", help="YAML config file (defaults used when omitted)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key, e.g. --set adapt.steps=500")
    sub.add_argument("--seed", type=int, help="override the config seed")


def cmd_gen_corpus(args) -> int:
    cfg = _config_of(args)
    c = cfg.corpus
    manifest = gen_corpus(
        args.out, cfg.seed, c.num_speakers, c.utts_per_speaker, c.frames_per_utt,
        list(c.domains), input_dim=c.input_dim, identity_dim=c.identity_dim,
        id_scale=c.id_scale, sess_scale=c.sess_scale, frame_sd=c.frame_sd, ar_rho=c.ar_rho,
    )
    log.info("wrote %d utterances across %d domains to %s",
             len(manifest.records), manifest.num_domains, args.out)
    return 0


def cmd_pretrain(args) -> int:
    pipeline.pretrain(args.corpus, _config_of(args), args.out)
    return 0


def cmd_finetune(args) -> int:
    pipeline.finetune(args.init, args.corpus, _config_of(args), args.out)
    return 0


def cmd_adapt(args) -> int:
    pipeline.adapt(args.init, args.corpus, _config_of(args), args.out)
    return 0


def cmd_evaluate(args) -> int:
    model, meta = load_checkpoint(args.ckpt)
    manifest = CorpusManifest.load(Path(args.corpus) / "manifest.tsv")
    manifest.verify_files(args.corpus)
    ckpt_id = f"{Path(args.ckpt).stem}:{meta.stage}@{meta.step}"
    if args.domain is not None:
        domains = [evaluate_domain(model, meta.stage, manifest, args.corpus, args.domain)]
        report = EvalReport(ckpt_id, meta.stage, domains)
    else:
        report = evaluate_model(model, meta.stage, manifest, args.corpus, ckpt_id)
    write_report(args.out, report)
    sys.stdout.write(format_table(report))
    return 0


def cmd_report(args) -> int:
    baseline = read_report(args.baseline)
    adapted = read_report(args.adapted)
    sys.stdout.write(format_table(adapted, baseline))
    if args.out:
        lines = [f"baseline={baseline.checkpoint} adapted={adapted.checkpoint}\n"]
        for d, base, eer, rd in compare_domains(adapted, baseline):
            rd = "n/a" if rd is None else f"{rd:.10g}"
            lines.append(f"domain=d{d} baseline_eer={base:.10g} adapted_eer={eer:.10g} rd={rd}\n")
        Path(args.out).write_text("".join(lines), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossadapt",
        description="Two-stage cross-domain adaptation workbench for speaker embeddings",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic multi-domain corpus")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("pretrain", help="train backbone + head on all domains pooled")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="clean-set fine-tuning from a pretrain checkpoint")
    _add_config_flags(p)
    p.add_argument("--init", required=True, help="pretrain checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("adapt", help="multi-target adaptation from a finetune checkpoint")
    _add_config_flags(p)
    p.add_argument("--init", required=True, help="finetune checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("evaluate", help="score trials and report EER per domain")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--domain", type=int, help="evaluate a single domain id (default: all)")
    p.add_argument("--out", required=True, help="report file path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="compare two evaluation reports")
    p.add_argument("--baseline", required=True)
    p.add_argument("--adapted", required=True)
    p.add_argument("--out", help="also write a key-value comparison file")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 3
    except ContractError as exc:
        log.error("error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
