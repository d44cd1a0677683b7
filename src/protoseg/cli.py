"""Command-line entry point: segment, evaluate, synth, inspect.

Exit codes: 0 success, 1 usage error, 2 ingestion or processing error.
All output files are written atomically, so a rerun with identical
inputs produces identical artifacts.

`main` runs the command it dispatches with Python's cyclic garbage
collector off and restores the caller's setting when the command
returns or raises.  The pipeline builds tens of thousands of small
objects per trace but no reference cycles, so reference counting frees
all of it and the collector's passes would find nothing; a test holds
every command path to zero cyclic garbage.

`main` also turns off numpy's advice to the kernel to back each array
of 4 MiB or more with transparent huge pages, and leaves it off for the
rest of the process.  Such an array often comes from the C heap, and
the advice stays on that part of the heap after the array is freed; the
kernel's khugepaged may later fold each 2 MiB of it, however little of
it is in use, into one resident huge page.  Whether it does depends on
the host, on how soon khugepaged reaches the process and whether it
finds free huge pages, so the peak RSS of identical runs differed by
about 20 MB.  Turning the advice back on after a command
would not help: the next large array, the program's or the caller's,
would advise the heap again.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys

import numpy as np

from . import evaluate as ev
from . import refine, synth, traceio
from .cluster import tree_to_json
from .model import AnalysisParams, ProtosegError, Segmentation, UsageError, segments_of

# traces beyond this need --force; the analysis memory is quadratic in
# distinct segment values
MESSAGE_LIMIT = 2000

_ENV_OUT = "PROTOSEG_OUT"

_MULTIARRAY = (np._core if hasattr(np, "_core") else np.core).multiarray  # numpy 2 or 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliUsageError(message)


class _CliUsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="protoseg",
                     description="Infer field boundaries of unknown binary protocols from traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_args(p):
        p.add_argument("--trace", required=True, help="pcap or hexline file")
        p.add_argument("--trace-format", choices=["auto", "pcap", "hexlines"], default="auto")
        p.add_argument("--layer", choices=["udp_payload", "tcp_payload", "raw_frame"],
                       default="udp_payload", help="payload extraction layer for pcap")
        p.add_argument("--port", type=int, default=None, help="UDP/TCP port filter")
        p.add_argument("--max-messages", type=int, default=None)
        p.add_argument("--no-dedupe", action="store_true",
                       help="keep byte-identical duplicate payloads (message ids count "
                            "the loaded messages)")
        p.add_argument("--force", action="store_true",
                       help=f"allow traces larger than {MESSAGE_LIMIT} messages")

    seg = sub.add_parser("segment", help="run a segmentation pipeline over a trace")
    add_trace_args(seg)
    seg.add_argument("--preset", choices=sorted(refine.PRESETS), default="nullpca")
    seg.add_argument("--base", choices=["null_bytes", "bit_congruence", "external"],
                     default=None, help="override the preset's base segmenter")
    seg.add_argument("--external-segments", default=None,
                     help="segmentation JSON for the external base")
    seg.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                     help="analysis parameter override (repeatable)")
    seg.add_argument("--config", default=None,
                     help="flat name=value file with analysis parameters and pass knobs")
    seg.add_argument("--out", default=None, help="output directory")

    eva = sub.add_parser("evaluate", help="score segmentations against ground truth")
    add_trace_args(eva)
    eva.add_argument("--truth", required=True, help="ground truth JSON")
    eva.add_argument("--segments", nargs="+", required=True,
                     help="one or more segmentation JSON files")
    eva.add_argument("--out", default=None, help="output directory")

    syn = sub.add_parser("synth", help="generate a synthetic trace with ground truth")
    syn.add_argument("--spec", required=True, help="protocol spec JSON")
    syn.add_argument("--messages", type=int, default=None,
                     help="override the spec's message count")
    syn.add_argument("--out", default=None, help="output directory")

    ins = sub.add_parser("inspect", help="hexdump messages with boundaries marked")
    add_trace_args(ins)
    ins.add_argument("--segments", default=None, help="segmentation JSON to mark")
    ins.add_argument("--limit", type=int, default=20, help="messages to print")
    return parser


# built once per process: parse_args leaves the parser as it was, so
# every main() call parses alike without paying for the construction
_PARSER = _build_parser()


def _out_dir(value):
    out = value or os.environ.get(_ENV_OUT) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_messages(args, *keyed) -> list:
    """The trace's messages, to be read with the files `keyed` by message id (None: not given).

    Ids count the loaded messages, so such a file fits only a trace that
    dedupe leaves whole, which is the trace as loaded without dedupe.
    """
    keyed = [path for path in keyed if path]
    fmt = args.trace_format
    if fmt == "auto":
        fmt = traceio.sniff_format(args.trace)
    spec = traceio.TraceSpec(path=args.trace, format=fmt, layer=args.layer,
                             port=args.port, max_messages=args.max_messages,
                             dedupe=not (args.no_dedupe or keyed))
    messages = traceio.load_trace(spec)
    if keyed and not args.no_dedupe and len({m.payload for m in messages}) < len(messages):
        raise UsageError(f"{', '.join(keyed)}: message ids count the messages dedupe keeps, "
                         f"and {args.trace} repeats a payload; pass --no-dedupe")
    if len(messages) > MESSAGE_LIMIT and not args.force:
        raise UsageError(
            f"trace has {len(messages)} messages (> {MESSAGE_LIMIT}); "
            "the analysis memory grows quadratically, pass --force to proceed")
    return messages


def _read_config_file(path) -> list:
    """Flat name=value lines, `#` comments."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected name=value")
        entries.append(body)
    return entries


def _config_value(name, raw, default):
    """A finite number of the default's type, or a UsageError naming the parameter."""
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"parameter {name!r} needs a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"parameter {name!r} needs a finite number, got {raw!r}")
    if isinstance(default, int):
        if not value.is_integer():
            raise UsageError(f"parameter {name!r} needs an integer, got {raw!r}")
        return int(value)
    return value


def _build_config(args) -> refine.PipelineConfig:
    """Merge config-file entries and --param overrides (flags win)."""
    entries = _read_config_file(args.config) if args.config else []
    entries += list(args.param)
    param_fields = {f.name for f in dataclasses.fields(AnalysisParams)}
    knob_fields = {f.name: f for f in dataclasses.fields(refine.PipelineConfig)
                   if f.name != "analysis"}
    params = {}
    knobs = {}
    for item in entries:
        name, _, raw = item.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name in param_fields:
            params[name] = _config_value(name, raw, getattr(AnalysisParams(), name))
        elif name in knob_fields:
            knobs[name] = _config_value(name, raw, getattr(refine.PipelineConfig(), name))
        else:
            known = ", ".join(sorted(param_fields | set(knob_fields)))
            raise UsageError(f"unknown parameter {name!r}; known: {known}")
    return refine.PipelineConfig(analysis=AnalysisParams(**params), **knobs)


def _cmd_segment(args) -> int:
    if args.external_segments and args.base != refine.BASE_EXTERNAL:
        raise UsageError("--external-segments needs --base external")
    messages = _load_messages(args, args.external_segments)
    config = _build_config(args)
    pipeline = refine.preset(args.preset, config=config, base=args.base)
    external = None
    if pipeline.base == refine.BASE_EXTERNAL:
        if not args.external_segments:
            raise UsageError("--base external requires --external-segments")
        external = traceio.load_segmentation(args.external_segments, messages)
    result = refine.run_pipeline(messages, pipeline, external=external)

    out = _out_dir(args.out)
    traceio.save_segmentation(os.path.join(out, "segments.json"), result.segmentations)
    traceio.write_json_atomic(os.path.join(out, "edits.json"), result.edits)
    traceio.write_json_atomic(os.path.join(out, "clusters.json"),
                              tree_to_json(result.tree or [], result.trace))
    print(f"{len(messages)} messages -> {out}/segments.json "
          f"({sum(len(s.cuts) for s in result.segmentations)} cuts, {len(result.edits)} edits)")
    return 0


def _report_names(paths) -> list:
    """A distinct report name per segmentation file.

    A file is named by its stem; colliding stems get their directory's
    name in front, and names that still collide are the paths as given.
    """
    if len(set(map(os.path.abspath, paths))) < len(paths):
        raise UsageError("--segments names the same file twice")
    stems = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    names = [f"{os.path.basename(os.path.dirname(os.path.abspath(p)))}/{stem}"
             if stems.count(stem) > 1 else stem for p, stem in zip(paths, stems)]
    return [p if names.count(name) > 1 else name for p, name in zip(paths, names)]


def _cmd_evaluate(args) -> int:
    names = _report_names(args.segments)
    messages = _load_messages(args, args.truth, *args.segments)
    truth = traceio.load_ground_truth(args.truth, messages)
    reports = []
    for path, name in zip(args.segments, names):
        segs = traceio.load_segmentation(path, messages)
        reports.append(ev.score_trace(segs, truth, messages, name=name))

    out = _out_dir(args.out)
    traceio.write_json_atomic(os.path.join(out, "report.json"),
                              {r.name: ev.report_to_json(r) for r in reports})
    traceio.write_text_atomic(os.path.join(out, "comparison.csv"), ev.compare_csv(reports))
    for r in reports:
        medians = " ".join(f"{k}={v:.4f}" for k, v in sorted(r.medians.items()))
        print(f"{r.name}: {medians} (messages={r.message_count}, "
              f"unknown={r.unknown_segments}, missing_truth={r.missing_truth})")
    return 0


def _cmd_synth(args) -> int:
    if args.messages is not None and args.messages < 0:
        raise UsageError(f"--messages must be non-negative, got {args.messages}")
    spec = synth.load_spec(args.spec)
    if args.messages is not None:
        spec = dataclasses.replace(spec, message_count=args.messages)
    messages, truth = synth.generate(spec)
    out = _out_dir(args.out)
    traceio.save_hexlines(os.path.join(out, "trace.hex"), messages)
    traceio.save_ground_truth(os.path.join(out, "truth.json"), truth)
    print(f"{spec.name}: {len(messages)} messages -> {out}/trace.hex, {out}/truth.json")
    return 0


def _cmd_inspect(args) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be non-negative, got {args.limit}")
    messages = _load_messages(args, args.segments)
    segs = {}
    if args.segments:
        segs = {s.message_id: s for s in traceio.load_segmentation(args.segments, messages)}
    for msg in messages[:args.limit]:
        seg = segs.get(msg.id) or Segmentation(msg.id)
        dump = "|".join(value.hex() for value in segments_of(seg, msg))
        print(f"{msg.id:6d}  {dump}  # {msg.source}")
    return 0


_COMMANDS = {
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _MULTIARRAY._set_madvise_hugepage(False)
    # no command makes a reference cycle (tests/test_cycles.py), so the
    # cyclic collector would only walk its many small objects
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProtosegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
