"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces every public function and public method of the
settraj modules with a wrapper that records one span (name, parent, start,
end) per call, everywhere the function is bound, so calls between modules
are caught as well as calls from the benchmark. ``tensor.backward`` also
counts the nodes of the tape it is handed, by op family, and times each
backward rule. ``uninstall`` puts the originals back; the spans stay in
memory across installs until ``metrics`` turns them into the per-layer
metrics and ``write_csv`` writes them out.

A span's self time is its duration minus the durations of its child spans.
An optimizer step has no function of its own in ``harness.train``; a step
runs from one ``ModelParams.zero_grad`` call, which starts each batch, to the
next one, or to the end of ``train``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("tensor", "attention", "masking", "model", "objectives", "data",
          "harness", "cli")
# Called once or more inside every tape op, or per parameter, where a span
# would cost more than the work it measures.
SKIP = {"tensor.active_tape", "tensor.as_tensor", "tensor.Tape.record",
        "tensor.Tape.watch", "model.ModelParams.named_parameters",
        "model.ModelParams.register"}
OPS = ("matmul", "transpose", "reshape", "concat_axis", "split_axis", "add",
       "mul", "scale", "affine", "layer_norm", "relu", "softmax_rows")
SABS = ("coarse_t1", "coarse_t2", "coarse_s", "fine_t1", "fine_t2", "fine_s")
MASK_BUILDERS = ("build_forecasting_mask", "build_imputation_mask",
                 "build_inference_mask", "build_percentage_mask",
                 "build_circle_mask", "build_camera_mask")
METRIC_FNS = ("ade_metric", "fde_metric", "max_err_metric", "accuracy_metric",
              "confusion_matrix")
STEP_LAYERS = ("tensor", "attention", "masking", "model", "objectives",
               "data", "harness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []   # perf_counter_ns
        self.ends: list[int] = []
        self._stack: list[int] = []
        self._patches: list = []      # (owner, attribute, original value)
        self.tapes: list = []         # (Counter of op families, output bytes)
        self.sab_names: dict = {}     # id(SabParams) -> block name

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        return functools.wraps(fn)(self._bare_span(name, fn))

    def _bare_span(self, name: str, fn):
        """The span wrapper without copied metadata, cheap enough to build
        for every backward rule."""
        names, parents, starts, ends = (self.names, self.parents, self.starts,
                                        self.ends)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _backward(self, backward):
        """``tensor.backward`` that first counts the tape's nodes and wraps
        each rule in a span named after the op that recorded it."""
        timed = self._span("tensor.backward", backward)

        def scan(tape):
            counts = Counter()
            nbytes = 0
            ops = []
            for out, inputs, rule in tape.ops:
                op = rule.__qualname__.split(".", 1)[0]
                counts[op] += 1
                nbytes += out.values.nbytes
                ops.append((out, inputs,
                            self._bare_span(f"tensor.bwd.{op}", rule)))
            tape.ops[:] = ops
            self.tapes.append((counts, nbytes))

        scan = self._span("trace.tape_scan", scan)

        @functools.wraps(backward)
        def traced_backward(loss, tape):
            scan(tape)
            return timed(loss, tape)

        return traced_backward

    def _init_params(self, init_params):
        """``model.init_params`` that remembers which block is which, so a
        set attention block span can be named after its ``SabParams``."""
        timed = self._span("model.init_params", init_params)

        @functools.wraps(init_params)
        def traced_init_params(*args, **kwargs):
            params = timed(*args, **kwargs)
            for enc, prefix in ((params.encoder_c, "coarse"),
                                (params.encoder_f, "fine")):
                for part in ("t1", "t2", "s"):
                    sab = getattr(enc, f"sab_{part}")
                    if sab is not None:
                        self.sab_names[id(sab)] = f"{prefix}_{part}"
            return params

        return traced_init_params

    def _sab(self, block):
        timed = {name: self._span(f"attention.sab.{name}", block)
                 for name in SABS}

        @functools.wraps(block)
        def traced_block(x, m, p):
            return timed[self.sab_names[id(p)]](x, m, p)

        return traced_block

    # -- installing --------------------------------------------------------

    def _wrapper(self, name: str, fn):
        if name == "tensor.backward":
            return self._backward(fn)
        if name == "model.init_params":
            return self._init_params(fn)
        if name == "attention.set_attention_block":
            return self._sab(fn)
        return self._span(name, fn)

    def install(self) -> None:
        replaced = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"settraj.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        replaced[obj] = self._wrapper(name, obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        for mod in [m for k, m in sys.modules.items()
                    if k == "settraj" or k.startswith("settraj.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])

    def _install_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in SKIP:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._span(name, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._span(name, member)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{parent},{name},{start},{end}\n")

    def metrics(self, loaded: int, saved: int, generated: int) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``loaded``, ``saved`` and ``generated`` are the sequence counts the
        traced ``load_sequences``, ``save_sequences`` and
        ``generate_possession_game`` calls handled.
        """
        names, parents = self.names, self.parents
        n = len(names)
        dur = [(e - s) / 1e6 for s, e in zip(self.starts, self.ends)]  # ms
        children = defaultdict(list)
        for i, p in enumerate(parents):
            if p >= 0:
                children[p].append(i)
        self_ms = [dur[i] - sum(dur[c] for c in children[i]) for i in range(n)]

        total = defaultdict(float)   # name -> summed duration
        calls = Counter(names)
        for i in range(n):
            total[names[i]] += dur[i]

        def per(value, count):
            return value / count if count else 0.0

        n_fwd = calls["model.forward"]
        n_bwd = calls["tensor.backward"]
        out = {}

        # tensor
        nodes = Counter()
        nbytes = 0
        for counts, b in self.tapes:
            nodes.update(counts)
            nbytes += b
        out["tensor.tape_nodes_per_seq"] = (per(sum(nodes.values()), n_bwd),
                                            "count")
        for op in OPS:
            out[f"tensor.nodes.{op}"] = (per(nodes[op], n_bwd), "count")
        out["tensor.tape_mb_per_seq"] = (per(nbytes / 1e6, n_bwd), "MB")
        out["tensor.backward_ms"] = (per(total["tensor.backward"], n_bwd),
                                     "ms")
        for op in OPS:
            out[f"tensor.bwd.{op}_ms"] = (
                per(total[f"tensor.bwd.{op}"], n_bwd), "ms")

        # attention
        for sab in SABS:
            out[f"attention.sab.{sab}_ms"] = (
                per(total[f"attention.sab.{sab}"], n_fwd), "ms")
        out["attention.masked_attention_ms"] = (
            per(total["attention.masked_attention"], n_fwd), "ms")
        out["attention.masked_attention_calls"] = (
            per(calls["attention.masked_attention"], n_fwd), "count")

        # model: one pass over spans in creation order, where every parent
        # comes before its children
        under_fwd = [False] * n
        train_of = [-1] * n   # enclosing harness.train span
        top = [-1] * n        # ancestor that is a direct child of that span
        for i in range(n):
            p = parents[i]
            under_fwd[i] = names[i] == "model.forward" or (p >= 0
                                                           and under_fwd[p])
            if p >= 0 and names[p] == "harness.train":
                train_of[i], top[i] = p, i
            elif p >= 0:
                train_of[i], top[i] = train_of[p], top[p]
        heads = 0.0
        for i in range(n):
            if names[i] != "model.forward":
                continue
            fine_end = max((self.ends[c] for c in children[i]
                            if names[c] == "model.encoder_fine"), default=None)
            if fine_end is not None:
                heads += sum(dur[c] for c in children[i]
                             if self.starts[c] >= fine_end)
        out["model.forward_ms"] = (per(total["model.forward"], n_fwd), "ms")
        out["model.embed_ms"] = (per(total["model.embed_inputs"]
                                     + total["model.append_cls"], n_fwd), "ms")
        out["model.encoder_coarse_ms"] = (
            per(total["model.encoder_coarse"], n_fwd), "ms")
        out["model.encoder_fine_ms"] = (
            per(total["model.encoder_fine"], n_fwd), "ms")
        out["model.heads_ms"] = (per(heads, n_fwd), "ms")
        out["model.self_ms"] = (per(sum(
            self_ms[i] for i in range(n)
            if under_fwd[i] and names[i].startswith("model.")), n_fwd), "ms")

        # masking, objectives, data
        out["masking.build_masks_ms"] = (per(
            sum(total[f"masking.{b}"] for b in MASK_BUILDERS),
            sum(calls[f"masking.{b}"] for b in MASK_BUILDERS)), "ms")
        out["masking.uncertainty_ms"] = (per(
            total["masking.build_uncertainty_mask"]
            + total["masking.UncertaintyMask.weights_tensor"], n_bwd), "ms")
        out["objectives.loss_ms"] = (per(total["objectives.total_loss"],
                                         calls["objectives.total_loss"]), "ms")
        out["objectives.metrics_ms"] = (per(
            sum(total[f"objectives.{f}"] for f in METRIC_FNS),
            calls["objectives.ade_metric"]), "ms")
        out["data.load_ms"] = (per(total["data.load_sequences"], loaded), "ms")
        out["data.save_ms"] = (per(total["data.save_sequences"], saved), "ms")
        out["data.inputs_ms"] = (per(
            total["data.TrajectorySequence.inputs"]
            + total["data.TrajectorySequence.nan_mask"]
            + total["data.TrajectorySequence.one_hot_states"], n_fwd), "ms")
        out["data.velocity_baseline_ms"] = (
            per(total["data.velocity_baseline"],
                calls["data.velocity_baseline"]), "ms")
        out["data.generate_ms"] = (per(total["data.generate_possession_game"],
                                       generated), "ms")

        # harness, and the layer self times inside each optimizer step
        steps, step_of = self._steps(names, parents)
        step_layers = defaultdict(float)
        step_ms = step_self = 0.0
        for (step_dur, direct) in steps.values():
            step_ms += step_dur
            step_self += step_dur - sum(dur[c] for c in direct)
        for i in range(n):
            if (train_of[i], top[i]) in step_of:
                step_layers[names[i].split(".", 1)[0]] += self_ms[i]
        n_steps = len(steps)
        out["harness.step_ms"] = (per(step_ms, n_steps), "ms")
        out["harness.step_self_ms"] = (per(step_self, n_steps), "ms")
        out["harness.clip_ms"] = (per(total["harness.clip_gradients"],
                                      n_steps), "ms")
        out["harness.adamw_ms"] = (per(total["harness.adamw_step"], n_steps),
                                   "ms")
        out["harness.run_model_self_ms"] = (per(
            sum(self_ms[i] for i in range(n)
                if names[i] == "harness.run_model"),
            calls["harness.run_model"]), "ms")
        out["harness.checkpoint_load_ms"] = (
            per(total["harness.Checkpoint.load"],
                calls["harness.Checkpoint.load"]), "ms")
        for layer in STEP_LAYERS:
            extra = step_self if layer == "harness" else 0.0
            out[f"step.{layer}_self_ms"] = (
                per(step_layers[layer] + extra, n_steps), "ms")
        # What the tracer itself spends inside a step (the tape scan): the
        # step span minus the layer self times above.
        out["step.trace_self_ms"] = (per(step_layers["trace"], n_steps), "ms")
        return out

    def _steps(self, names, parents):
        """Optimizer steps as ``{(train span, k): (duration ms, direct
        children)}``, and ``{(train span, direct child): step key}`` for
        every direct child of a ``harness.train`` span inside a step."""
        direct = defaultdict(list)
        for i, p in enumerate(parents):
            if p >= 0 and names[p] == "harness.train":
                direct[p].append(i)
        steps = {}
        step_of = {}
        for train, kids in direct.items():
            zero = [c for c in kids
                    if names[c] == "model.ModelParams.zero_grad"]
            bounds = [self.starts[c] for c in zero] + [self.ends[train]]
            for k in range(len(zero)):
                lo, hi = bounds[k], bounds[k + 1]
                inside = [c for c in kids if lo <= self.starts[c] < hi]
                steps[(train, k)] = ((hi - lo) / 1e6, inside)
                for c in inside:
                    step_of[(train, c)] = (train, k)
        return steps, step_of
