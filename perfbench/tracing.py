"""Spans and exact counters recorded around mvfa's entry points.

Each wrapper replaces the attribute a caller looks up at call time, for
example ``mvfa.metrics.score_image`` for the evaluator and
``mvfa.inference.score_image`` for library callers, so nothing under
``src/`` changes. Spans stay in memory until the run ends, when
``Tracer.write`` saves them. An entry point that no longer exists is listed
in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Nested spans (name, start, end, parent) plus exact counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.step_marks = []   # ("start" | "step", ns) in call order
        self.absent = []
        self._patches = []

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index):
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def write(self, path):
        """Save every span as a tab-separated row; times in ns from the first start."""
        origin = self.starts[0] if self.starts else 0
        rows = ["index\tparent\tname\tstart_ns\tend_ns\n"]
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            rows.append(f"{index}\t{parent}\t{name}\t{self.starts[index] - origin}\t"
                        f"{self.ends[index] - origin}\n")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(rows), encoding="utf-8")

    # -- patching ------------------------------------------------------------

    def wrap(self, module_name, attr, name, before=None, after=None):
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a spanned call.

        ``name`` is a string or a function of the call's arguments;
        ``before(args, kwargs)`` runs ahead of the span and ``after(args,
        kwargs, result)`` behind it, so their cost lands in the caller's
        self time, never in the wrapped layer's.
        """
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, leaf, traced)
        self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- derived numbers -----------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return durations, own

    def roots(self):
        """Index of each span's outermost ancestor."""
        root = []
        for index, parent in enumerate(self.parents):
            root.append(index if parent < 0 else root[parent])
        return root

    def by_name(self, within=None):
        """{name: (calls, self ns)}, optionally only under the root spans ``within``."""
        _, own = self.self_times()
        roots = self.roots()
        table = defaultdict(lambda: [0, 0])
        for index, name in enumerate(self.names):
            if within is None or roots[index] in within:
                table[name][0] += 1
                table[name][1] += own[index]
        return table

    def step_ms(self):
        """Wall time of each training step, from the train call or the previous step."""
        steps, last = [], None
        for kind, stamp in self.step_marks:
            if kind == "step" and last is not None:
                steps.append((stamp - last) / 1e6)
            last = stamp
        return steps


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_nodes(loss):
    """Graph nodes reachable from ``loss`` through ``Tensor.node.parents``."""
    seen, stack, nodes = set(), [loss], 0
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        node = getattr(tensor, "node", None)
        if node is not None:
            nodes += 1
            stack.extend(node.parents)
    return nodes


def instrument(tracer: Tracer):
    """Install every wrapper; the tracer's ``uninstall`` removes them."""
    counters, maxima = tracer.counters, tracer.maxima

    def walk_graph(args, kwargs):
        with tracer.span("trace.node_walk"):
            counters["autograd.nodes"] += _count_nodes(_arg(args, kwargs, 0, "loss"))

    def mark_train(args, kwargs):
        tracer.step_marks.append(("start", perf_counter_ns()))

    def mark_step(args, kwargs, result):
        tracer.step_marks.append(("step", perf_counter_ns()))

    def bank_rows(args, kwargs, bank):
        maxima["inference.bank_rows"] = max(maxima["inference.bank_rows"],
                                            bank.cls[0].shape[0])

    def nn_shapes(args, kwargs, result):
        features = _arg(args, kwargs, 0, "features")
        bank = _arg(args, kwargs, 1, "bank")
        for queries, stores in ((features.cls, bank.cls), (features.seg, bank.seg)):
            for q, store in zip(queries, stores):
                rows, dim = q.shape
                counters["inference.nn_pairs"] += rows * store.shape[0]
                maxima["inference.nn_temp_bytes"] = max(
                    maxima["inference.nn_temp_bytes"], rows * store.shape[0] * dim * 4)

    def ranked(args, kwargs, result):
        counters["metrics.ranked_values"] += len(_arg(args, kwargs, 0, "scores"))

    def stage_name(args, kwargs):
        return f"backbone.stage{_arg(args, kwargs, 1, 'index') + 1}"

    table = [
        ("mvfa.data", "gen_dataset", "data.gen", {}),
        ("mvfa.data", "load_manifest", "data.load", {}),
        ("mvfa.data", "load_sample", "data.load", {}),
        ("mvfa.metrics", "load_sample", "data.load", {}),
        ("mvfa.data", "read_pgm", "data.read_pgm", {}),
        ("mvfa.textbank", "build_text_features", "textbank.build", {}),
        ("mvfa.backbone", "init_backbone", "backbone.init", {}),
        ("mvfa.cli", "init_backbone", "backbone.init", {}),
        ("mvfa.backbone", "FrozenBackbone.embed", "backbone.embed", {}),
        ("mvfa.backbone", "FrozenBackbone.run_stage", stage_name, {}),
        ("mvfa.adaptation", "init_params", "adaptation.init_params", {}),
        ("mvfa.cli", "init_params", "adaptation.init_params", {}),
        ("mvfa.objective", "adapt_forward", "adaptation.adapt_forward", {}),
        ("mvfa.inference", "adapt_forward", "adaptation.adapt_forward", {}),
        ("mvfa.cli", "save_checkpoint", "adaptation.ckpt_save", {}),
        ("mvfa.cli", "load_checkpoint", "adaptation.ckpt_load", {}),
        ("mvfa.objective", "train", "objective.train", {"before": mark_train}),
        ("mvfa.objective", "total_loss", "objective.loss", {}),
        ("mvfa.objective", "adam_step", "objective.adam", {"after": mark_step}),
        ("mvfa.autograd", "backward", "autograd.backward", {"before": walk_graph}),
        ("mvfa.metrics", "score_image", "inference.score_image", {}),
        ("mvfa.inference", "score_image", "inference.score_image", {}),
        ("mvfa.inference", "zero_shot", "inference.zero_shot", {}),
        ("mvfa.inference", "few_shot", "inference.few_shot", {"after": nn_shapes}),
        ("mvfa.inference", "build_memory_bank", "inference.bank_build",
         {"after": bank_rows}),
        ("mvfa.inference", "save_bank", "inference.bank_io", {}),
        ("mvfa.inference", "load_bank", "inference.bank_io", {"after": bank_rows}),
        ("mvfa.inference", "save_map", "inference.map_save", {}),
        ("mvfa.metrics", "score_samples", "metrics.score_samples", {}),
        ("mvfa.metrics", "evaluate", "metrics.evaluate", {}),
        ("mvfa.metrics", "auc", "metrics.auc", {"after": ranked}),
        ("mvfa.metrics", "write_report", "metrics.write_report", {}),
    ]
    for module_name, attr, name, hooks in table:
        tracer.wrap(module_name, attr, name, **hooks)


# name, unit, better; the README maps each to the end-to-end metric it moves
PER_LAYER = [
    ("data.gen_s", "s", "lower"),
    ("data.load_ms", "ms", "lower"),
    ("data.loads", "count", "lower"),
    ("textbank.build_ms", "ms", "lower"),
    ("backbone.embed_ms", "ms", "lower"),
    ("backbone.stage1_ms", "ms", "lower"),
    ("backbone.stage2_ms", "ms", "lower"),
    ("backbone.stage3_ms", "ms", "lower"),
    ("backbone.stage4_ms", "ms", "lower"),
    ("backbone.forwards", "count", "lower"),
    ("adaptation.adapter_ms", "ms", "lower"),
    ("adaptation.ckpt_save_ms", "ms", "lower"),
    ("adaptation.ckpt_load_ms", "ms", "lower"),
    ("objective.loss_ms", "ms", "lower"),
    ("objective.adam_ms", "ms", "lower"),
    ("objective.steps", "count", "lower"),
    ("objective.step_ms_p50", "ms", "lower"),
    ("objective.step_ms_p90", "ms", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("autograd.nodes_per_sample", "count", "lower"),
    ("inference.zero_shot_ms", "ms", "lower"),
    ("inference.few_shot_ms", "ms", "lower"),
    ("inference.nn_pairs", "count", "lower"),
    ("inference.nn_temp_mb", "MiB", "lower"),
    ("inference.score_self_ms", "ms", "lower"),
    ("inference.bank_build_ms", "ms", "lower"),
    ("inference.bank_rows", "count", "lower"),
    ("inference.bank_io_ms", "ms", "lower"),
    ("inference.map_save_ms", "ms", "lower"),
    ("metrics.auc_ms", "ms", "lower"),
    ("metrics.auc_calls", "count", "lower"),
    ("metrics.ranked_values", "count", "lower"),
    ("metrics.evaluate_self_ms", "ms", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# exact counts: two traced runs of one seed must agree on these
EXACT_COUNTERS = ("autograd.nodes_per_sample", "inference.nn_pairs",
                  "inference.nn_temp_mb", "inference.bank_rows", "metrics.auc_calls",
                  "metrics.ranked_values", "objective.steps")


def quantile(values, q):
    """Inclusive-method quantile; 0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, uncovered_frac, overhead_frac):
    """Every PER_LAYER value from the recorded spans; 0 where a layer did no work."""
    table = tracer.by_name()

    def calls(name):
        return table[name][0] if name in table else 0

    def self_ms(*names):
        return sum(table[n][1] for n in names if n in table) / 1e6

    def per_call(name, divisor=None):
        count = calls(divisor or name)
        return self_ms(name) / count if count else 0.0

    loads = calls("data.read_pgm")
    losses = calls("objective.loss")
    few = calls("inference.few_shot")
    steps = tracer.step_ms()
    values = {
        "data.gen_s": per_call("data.gen") / 1e3,
        "data.load_ms": self_ms("data.load", "data.read_pgm") / loads if loads else 0.0,
        "data.loads": loads,
        "textbank.build_ms": per_call("textbank.build"),
        "backbone.embed_ms": per_call("backbone.embed"),
        "backbone.forwards": calls("backbone.embed"),
        "adaptation.adapter_ms": per_call("adaptation.adapt_forward"),
        "adaptation.ckpt_save_ms": per_call("adaptation.ckpt_save"),
        "adaptation.ckpt_load_ms": per_call("adaptation.ckpt_load"),
        "objective.loss_ms": per_call("objective.loss"),
        "objective.adam_ms": per_call("objective.adam"),
        "objective.steps": calls("objective.adam"),
        "objective.step_ms_p50": quantile(steps, 50),
        "objective.step_ms_p90": quantile(steps, 90),
        "autograd.backward_ms": per_call("autograd.backward"),
        "autograd.nodes_per_sample": (tracer.counters["autograd.nodes"] / losses
                                      if losses else 0),
        "inference.zero_shot_ms": per_call("inference.zero_shot"),
        "inference.few_shot_ms": per_call("inference.few_shot"),
        "inference.nn_pairs": tracer.counters["inference.nn_pairs"] / few if few else 0,
        "inference.nn_temp_mb": tracer.maxima["inference.nn_temp_bytes"] / 2 ** 20,
        "inference.score_self_ms": per_call("inference.score_image"),
        "inference.bank_build_ms": per_call("inference.bank_build"),
        "inference.bank_rows": tracer.maxima["inference.bank_rows"],
        "inference.bank_io_ms": per_call("inference.bank_io"),
        "inference.map_save_ms": per_call("inference.map_save"),
        "metrics.auc_ms": per_call("metrics.auc"),
        "metrics.auc_calls": calls("metrics.auc"),
        "metrics.ranked_values": tracer.counters["metrics.ranked_values"],
        "metrics.evaluate_self_ms": per_call("metrics.evaluate"),
        "trace.uncovered_frac": uncovered_frac,
        "trace.overhead_frac": overhead_frac,
    }
    for stage in range(1, 5):
        values[f"backbone.stage{stage}_ms"] = per_call(f"backbone.stage{stage}")
    return values
