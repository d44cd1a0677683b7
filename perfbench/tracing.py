"""Outside-in tracing of protoseg's layers for the benchmark's traced run.

The tracer replaces public functions with timing wrappers in the
namespace their caller looks them up in (several are imported by name,
so `refine.recursive_cluster` is wrapped, not `cluster.recursive_cluster`).
Each call records a span (id, parent, pass, trace, site, start, end,
hook time) in memory; count hooks add per-layer work counts at the same
boundaries.
Helpers that are not wrapped (`char_heuristic`, `canberra`, `kneedle`,
`segments_of`, private functions) count toward their caller's self time.

A span's self time is its duration minus the durations of its direct
children and the tracer's own cost around them.  Each site belongs to
one self-time metric, so the self-time metrics inside `segment` add up
to the traced wall time less the tracer's cost.  The benchmark fails a
traced run when a site is absent, when a site the workload's presets
call records no span, or when the self times of the named layer
functions, which leave out the command's own self time, are more than
5 % away from that time.
"""

from __future__ import annotations

import functools
import importlib
import logging
import statistics
import time
from collections import Counter, defaultdict


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_recursive(counts, args, kwargs, roots):
    counts["refine.segments_clustered"] += len(_first(args, kwargs))
    suitable = [leaf for root in roots for leaf in root.leaves()
                if leaf.verdict == "pca_suitable"]
    counts["cluster.suitable_leaves"] += len(suitable)
    counts[INTERPRETABLE] += sum(
        leaf.spectrum is not None and leaf.spectrum.n_sig >= 1 for leaf in suitable)


def _count_pairwise(counts, args, kwargs, matrix):
    values = _first(args, kwargs)
    n = len(values)
    counts["dissim.pairwise_calls"] += 1
    counts["dissim.pairwise_segments"] += n
    counts["dissim.pairwise_unique"] += len({bytes(v) for v in values})
    counts["dissim.matrix_mb"] += n * n * 8 / 1e6


def _count_dbscan(counts, args, kwargs, result):
    counts["cluster.dbscan_calls"] += 1
    counts["cluster.dbscan_points"] += len(_first(args, kwargs))


def _count_eig(counts, args, kwargs, result):
    counts["pca.calls"] += 1
    counts["pca.dims"] += len(_first(args, kwargs))


def _counter(key, size=None):
    def hook(counts, args, kwargs, result):
        counts[key] += 1 if size is None else len(size(result))
    return hook


# self-time metric -> call sites as (module, attribute), count hook
SITES = {
    "cli.segment_self_s": ([("cli", "main")], None),
    "traceio.load_trace_s": ([("traceio", "sniff_format"), ("traceio", "load_trace")], None),
    "traceio.write_s": ([("traceio", "save_segmentation"),
                         ("traceio", "write_json_atomic")], None),
    "refine.pipeline_self_s": ([("refine", "run_pipeline")],
                               _counter("refine.edits", lambda r: r.edits)),
    "refine.base_s": ([("refine", "null_segmenter"),
                       ("refine", "bit_congruence_segmenter")], None),
    "refine.static_s": ([("refine", "entropy_merge"), ("refine", "null_refine"),
                         ("refine", "merge_chars"), ("refine", "crop_chars"),
                         ("refine", "crop_distinct"), ("refine", "split_fixed")], None),
    "cluster.recursive_self_s": ([("refine", "recursive_cluster")], _count_recursive),
    "cluster.dbscan_s": ([("cluster", "dbscan")], _count_dbscan),
    "cluster.estimate_eps_s": ([("cluster", "estimate_eps")], None),
    "cluster.tree_to_json_s": ([("cli", "tree_to_json")], None),
    "dissim.pairwise_s": ([("dissim", "pairwise")], _count_pairwise),
    "dissim.overlay_s": ([("dissim", "overlay_cluster")], _counter("cluster.overlays")),
    "dissim.dissimilarity_s": ([("dissim", "dissimilarity")],
                               _counter("dissim.dissimilarity_calls")),
    "dissim.build_matrix_s": ([("dissim", "build_matrix")], None),
    "pca.covariance_s": ([("pca", "covariance")], None),
    "pca.eig_sym_s": ([("pca", "eig_sym")], _count_eig),
    "pca.analyze_spectrum_s": ([("pca", "analyze_spectrum")], None),
    "rules.infer_s": ([("refine", "contribution"), ("refine", "rule_a"),
                       ("refine", "rule_b"), ("refine", "common_aligned_cuts")], None),
    "rules.cluster_edits_s": ([("refine", "cluster_edits")],
                              _counter("rules.edits_proposed", lambda r: r)),
    "rules.apply_edits_s": ([("refine", "apply_edits")],
                            _counter("rules.edits_applied", lambda r: r[1])),
    "synth.generate_s": ([("synth", "generate")], None),
    "evaluate.score_s": ([("evaluate", "score_trace")], None),
}

# self-time metrics of work done outside the timed `segment` calls
OUTSIDE_SEGMENT = ("synth.generate_s", "evaluate.score_s")

# the root span: its self time is whatever no wrapped layer function
# claims, so the attribution check leaves it out
CATCH_ALL = "cli.segment_self_s"
ROOT_SITE = "cli.main"

# sites a preset's pipeline never calls (merge_chars is in no preset)
UNREACHED = {
    "nullpca": {"refine.bit_congruence_segmenter", "refine.entropy_merge",
                "refine.null_refine", "refine.merge_chars"},
    "nemepca": {"refine.null_segmenter", "refine.merge_chars"},
}

# sites called once per PCA-suitable leaf with a significant component,
# which small traces may not have; the count is kept but not reported
PER_LEAF = {"refine.contribution", "refine.rule_a", "refine.rule_b",
            "refine.common_aligned_cuts", "refine.cluster_edits"}
INTERPRETABLE = "cluster.interpretable_leaves"

# warnings of the protoseg logger counted per pass, by message prefix
_LOG_COUNTS = (("skipping cluster", "rules.skipped_clusters"),
               ("pass ", "refine.pass_failures"))
LOG_COUNT_NAMES = tuple(key for _, key in _LOG_COUNTS)

RATIOS = {
    "cluster.suitable_ratio": ("cluster.suitable_leaves", "cluster.overlays"),
    "dissim.dedup_ratio": ("dissim.pairwise_segments", "dissim.pairwise_unique"),
    "rules.apply_ratio": ("rules.edits_applied", "rules.edits_proposed"),
}

PACKAGE = "protoseg"


def expected_sites(presets, interpretable_leaves: int) -> set:
    """Sites that traced passes over traces of these presets must reach."""
    every = {f"{module}.{attr}" for sites, _ in SITES.values() for module, attr in sites}
    unreached = set.intersection(*(UNREACHED[p] for p in presets))
    return every - unreached - (set() if interpretable_leaves else PER_LEAF)


class _LogCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        for prefix, key in _LOG_COUNTS:
            if str(record.msg).startswith(prefix):
                self.tracer.counts[self.tracer.pass_id][key] += 1


class Tracer:
    """Span recorder that installs and removes the layer wrappers.

    A span is [id, parent id, pass id, trace, site, start, end, hook
    seconds].  The wrapper's own work around a call (building the span,
    the stack, the count hook) runs on the caller's clock, so it is
    taken out of the caller's self time: the hook time as measured, the
    rest as `call_cost`, the per-call cost of wrapping a no-op measured
    at install.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.pass_id = "setup"
        self.trace = ""
        self.absent = []
        self.call_cost = 0.0
        self._metric = {}  # site -> self-time metric
        self._stack = []
        self._installed = []
        self._log_handler = _LogCounter(self)

    def _wrap(self, site, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [len(tracer.spans), stack[-1][0] if stack else None,
                    tracer.pass_id, tracer.trace, site, 0.0, 0.0, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            span[5] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer.pass_id], args, kwargs, result)
                span[7] = clock() - span[6]
            return result
        return wrapper

    def _measure_call_cost(self, calls=2000, repeats=7) -> float:
        """Seconds per call a hook-less wrapper spends outside its own span."""
        def noop():
            return None
        wrapped = self._wrap("calibration.noop", noop, None)
        clock = time.perf_counter
        saved, self.pass_id = self.pass_id, "calibration"
        costs = []
        for _ in range(repeats):
            mark = len(self.spans)
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            inside = sum(s[6] - s[5] for s in self.spans[mark:])
            del self.spans[mark:]
            costs.append(((t2 - t1) - (t1 - t0) - inside) / calls)
        self.pass_id = saved
        return max(statistics.median(costs), 0.0)

    def install(self) -> None:
        """Wrap every call site; a site that no longer exists is recorded as absent."""
        if self._installed:
            return
        if not self.call_cost:
            self.call_cost = self._measure_call_cost()
        absent = []
        for metric, (sites, hook) in SITES.items():
            for module_name, attr in sites:
                site = f"{module_name}.{attr}"
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    absent.append(site)
                    continue
                self._metric[site] = metric
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(site, fn, hook))
        self.absent = absent
        logging.getLogger(PACKAGE).addHandler(self._log_handler)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []
        logging.getLogger(PACKAGE).removeHandler(self._log_handler)

    def _pass_spans(self, pass_id) -> tuple:
        """(spans of one pass, those inside a `segment` call)."""
        spans = [s for s in self.spans if s[2] == pass_id]
        root = {}
        for s in spans:  # parents are recorded before their children
            root[s[0]] = s[4] if s[1] is None else root[s[1]]
        return spans, [s for s in spans if root[s[0]] == ROOT_SITE]

    def self_times(self, pass_id) -> dict:
        """Summed self time per metric over one pass, the tracer's own cost taken out."""
        spans, _ = self._pass_spans(pass_id)
        charged = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                charged[s[1]] += (s[6] - s[5]) + s[7] + self.call_cost
        out = defaultdict(float)
        for s in spans:
            out[self._metric[s[4]]] += (s[6] - s[5]) - charged[s[0]]
        return out

    def reached(self) -> set:
        """Sites that recorded at least one span."""
        return {s[4] for s in self.spans}

    def pass_metrics(self, pass_id, wall_s: float, artifact_bytes: int) -> dict:
        """Per-layer metrics of one traced pass.

        `trace.correction_s` is the tracer's own cost inside the timed
        calls that self times leave out.  `trace.attributed_frac` is the
        share of the rest that named layer functions claim, so time that
        falls back to the `segment` command's own self time shows.
        """
        own = self.self_times(pass_id)
        counts = self.counts[pass_id]
        _, inside = self._pass_spans(pass_id)
        correction = sum(s[7] + self.call_cost for s in inside)
        metrics = {name: own.get(name, 0.0) for name in SITES}
        metrics.update({name: float(v) for name, v in counts.items()})
        for name, (num, den) in RATIOS.items():
            metrics[name] = counts[num] / counts[den] if counts[den] else 0.0
        claimed = sum(v for k, v in metrics.items()
                      if k in SITES and k not in OUTSIDE_SEGMENT and k != CATCH_ALL)
        metrics["trace.wall_s"] = wall_s
        metrics["trace.correction_s"] = correction
        metrics["trace.attributed_frac"] = (claimed / (wall_s - correction)
                                            if wall_s > correction else 0.0)
        metrics["traceio.artifact_bytes"] = float(artifact_bytes)
        return metrics

    def write_spans(self, path: str) -> None:
        """Tab-separated spans, one a line, times relative to the first span."""
        t0 = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tpass\ttrace\tsite\tstart_s\tend_s\thook_s\n")
            for sid, parent, pass_id, trace, site, start, end, hook_s in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{pass_id}\t{trace}"
                         f"\t{site}\t{start - t0:.9f}\t{end - t0:.9f}\t{hook_s:.9f}\n")


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
