"""Per-layer metrics from the spans of a traced run.

``*_s`` metrics are totals over the traced scope, ``*_ms`` metrics are means
per call (or per training step for ``numerics.*``), counts are exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import summary
from spans import Span, ancestors, charged_module, children_of, self_times, subtree_tape_nodes

# every per-layer metric of a traced run, with its unit, in report order
PER_LAYER = [
    ("numerics.backward_ms", "ms"),
    ("numerics.mlp_forward_ms", "ms"),
    ("numerics.adam_step_ms", "ms"),
    ("numerics.tape_nodes_per_step", "count"),
    ("losses.batch_loss_graph_ms", "ms"),
    ("training.step_p50_ms", "ms"),
    ("training.step_p95_ms", "ms"),
    ("training.make_batches_ms", "ms"),
    ("training.dataset_mean_loss_s", "s"),
    ("flow.forward_rows_per_s", "1/s"),
    ("flow.inverse_rows_per_s", "1/s"),
    ("flow.forward_calls", "count"),
    ("flow.inverse_calls", "count"),
    ("flow.rows_per_call", "count"),
    ("editing.minimal_edit_batch_s", "s"),
    ("editing.search_rounds", "count"),
    ("editing.rows_decoded", "count"),
    ("editing.useful_row_ratio", "ratio"),
    ("editing.steps_used_total", "count"),
    ("evaluation.train_probe_s", "s"),
    ("evaluation.probe_score_ms", "ms"),
    ("synthetic.backbone_invert_calls", "count"),
    ("synthetic.generate_dataset_s", "s"),
    ("synthetic.save_dataset_s", "s"),
    ("synthetic.load_dataset_s", "s"),
    ("training.save_checkpoint_s", "s"),
    ("training.load_checkpoint_s", "s"),
    ("synthetic.dataset_bytes", "bytes"),
    ("training.checkpoint_bytes", "bytes"),
    ("cli.gen_data_s", "s"),
    ("cli.train_s", "s"),
    ("trace.overhead_pct", "%"),
    ("quality.identity_mse", "mse"),
]


def _by_name(spans: list[Span]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        out[sp.name].append(i)
    return out


def _total(spans, idxs) -> float:
    return sum(spans[i].duration for i in idxs)


def _mean_ms(spans, idxs) -> float:
    return 1e3 * _total(spans, idxs) / len(idxs) if idxs else 0.0


def train_steps(spans: list[Span], kids: list[list[int]], owner: str) -> list[tuple[float, float]]:
    """Optimizer step windows under each ``owner`` span: from zero_grad's
    start to the end of the following Adam step."""
    windows = []
    for i, sp in enumerate(spans):
        if sp.name != owner:
            continue
        start = None
        for k in kids[i]:
            if spans[k].name == "numerics.zero_grad":
                start = spans[k].start
            elif spans[k].name == "numerics.adam_step" and start is not None:
                windows.append((start, spans[k].end))
                start = None
    return windows


def edit_search_stats(spans: list[Span], kids: list[list[int]], idxs: list[int]) -> dict:
    """Rounds, rows decoded and useful rows of minimal_edit_batch calls.

    A stack that stops at step s needed s + 1 candidate decodes of k rows
    each, so useful rows are sum((steps_used + 1) * k) over results."""
    rounds = rows = useful = 0
    hist: Counter = Counter()
    for i in idxs:
        inverse = [k for k in kids[i] if spans[k].name == "flow.inverse"]
        forward = [k for k in kids[i] if spans[k].name == "flow.forward"]
        rounds += len(inverse)
        rows += sum(spans[k].rows for k in inverse)
        results = spans[i].result or []
        if results and forward:
            per_stack = spans[forward[0]].rows // len(results)
            useful += sum((r.steps_used + 1) * per_stack for r in results)
        hist.update(r.steps_used for r in results)
    return {
        "rounds": rounds,
        "rows": rows,
        "useful_ratio": useful / rows if rows else 0.0,
        "hist": {str(k): hist[k] for k in sorted(hist)},
    }


def layer_metrics(spans: list[Span]) -> tuple[dict, dict, dict]:
    """(metrics, exact counts, detail) for the spans of one traced run."""
    kids = children_of(spans)
    selfs = self_times(spans)
    names = _by_name(spans)

    trains = set(names["training.train"])
    step_loss = [i for i in names["losses.batch_loss_graph"] if spans[i].parent in trains]
    step_loss_set = set(step_loss)
    steps = train_steps(spans, kids, "training.train")
    n_steps = max(1, len(steps))
    step_ms = [1e3 * (b - a) for a, b in steps] or [0.0]
    mlp_in_steps = [
        i for i in names["numerics.mlp_forward"]
        if any(a in step_loss_set for a in ancestors(spans, i))
    ]
    tape_nodes = sum(subtree_tape_nodes(spans, kids, i) for i in step_loss)

    fwd, inv = names["flow.forward"], names["flow.inverse"]
    fwd_rows = sum(spans[i].rows for i in fwd)
    inv_rows = sum(spans[i].rows for i in inv)
    search = edit_search_stats(spans, kids, names["editing.minimal_edit_batch"])

    def cli_self(cmd: str) -> float:
        return sum(selfs[i] for i in names[f"cli.{cmd}"])

    metrics = {
        "numerics.backward_ms": 1e3 * _total(spans, [i for i in names["numerics.backward"] if spans[i].parent in trains]) / n_steps,
        "numerics.mlp_forward_ms": 1e3 * _total(spans, mlp_in_steps) / n_steps,
        "numerics.adam_step_ms": 1e3 * _total(spans, [i for i in names["numerics.adam_step"] if spans[i].parent in trains]) / n_steps,
        "numerics.tape_nodes_per_step": tape_nodes / n_steps,
        "losses.batch_loss_graph_ms": 1e3 * sum(selfs[i] for i in step_loss) / max(1, len(step_loss)),
        "training.step_p50_ms": summary.percentile(step_ms, 50),
        "training.step_p95_ms": summary.percentile(step_ms, 95),
        "training.make_batches_ms": _mean_ms(spans, names["training.make_batches"]),
        "training.dataset_mean_loss_s": _total(spans, names["training.dataset_mean_loss"]),
        "flow.forward_rows_per_s": fwd_rows / _total(spans, fwd) if fwd else 0.0,
        "flow.inverse_rows_per_s": inv_rows / _total(spans, inv) if inv else 0.0,
        "flow.forward_calls": len(fwd),
        "flow.inverse_calls": len(inv),
        "flow.rows_per_call": (fwd_rows + inv_rows) / max(1, len(fwd) + len(inv)),
        "editing.minimal_edit_batch_s": _total(spans, names["editing.minimal_edit_batch"]),
        "editing.search_rounds": search["rounds"],
        "editing.rows_decoded": search["rows"],
        "editing.useful_row_ratio": search["useful_ratio"],
        "editing.steps_used_total": sum(int(k) * v for k, v in search["hist"].items()),
        "evaluation.train_probe_s": _total(spans, names["evaluation.train_probe"]),
        "evaluation.probe_score_ms": _mean_ms(spans, names["evaluation.probe_score"]),
        "synthetic.backbone_invert_calls": len(names["synthetic.backbone_invert"]),
        "synthetic.generate_dataset_s": _total(spans, names["synthetic.generate_dataset"]),
        "synthetic.save_dataset_s": _total(spans, names["synthetic.save_dataset"]),
        "synthetic.load_dataset_s": _total(spans, names["synthetic.load_dataset"]),
        "training.save_checkpoint_s": _total(spans, names["training.save_checkpoint"]),
        "training.load_checkpoint_s": _total(spans, names["training.load_checkpoint"]),
        "cli.gen_data_s": cli_self("gen_data"),
        "cli.train_s": cli_self("train"),
    }
    counts = {
        "numerics.tape_nodes_per_step": metrics["numerics.tape_nodes_per_step"],
        "flow.forward_calls": len(fwd),
        "flow.inverse_calls": len(inv),
        "editing.rows_decoded": search["rows"],
        "editing.steps_used_hist": search["hist"],
        "synthetic.backbone_invert_calls": len(names["synthetic.backbone_invert"]),
    }
    charged: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    for i, sp in enumerate(spans):
        charged[charged_module(spans, i)] += selfs[i]
        self_by_name[sp.name] += selfs[i]
    probe_steps = train_steps(spans, kids, "evaluation.train_probe")
    detail = {
        "workload_specific": {
            "evaluation.edit_sweep_s": _total(spans, names["evaluation.edit_sweep"]),
            "evaluation.identity_drift_s": _total(spans, names["evaluation.identity_drift"]),
            "editing.edit_attribute_ms": _mean_ms(spans, names["editing.edit_attribute"]),
            "cli.evaluate_s": cli_self("evaluate"),
            "synthetic.save_ground_truth_s": _total(spans, names["synthetic.save_ground_truth"]),
            "evaluation.save_report_s": _total(spans, names["evaluation.save_report"]),
            "evaluation.probe_step_p50_ms": summary.percentile([1e3 * (b - a) for a, b in probe_steps] or [0.0], 50),
            "training.steps": len(steps),
            "evaluation.probe_steps": len(probe_steps),
        },
        "self_s_by_module": dict(sorted(charged.items())),
        "self_s_by_span": dict(sorted(self_by_name.items())),
        "calls_by_span": {k: len(v) for k, v in sorted(names.items())},
        "steps_used_hist": search["hist"],
        "span_count": len(spans),
    }
    return metrics, counts, detail
