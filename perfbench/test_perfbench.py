"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import summary  # noqa: E402
from spans import Span, Tracer, charged_module, self_times  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(1000, 99.0), (999, 95.0), (10_000, 99.9), (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (1, None)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert summary.tail_percentile(n) == expected

    def test_chosen_percentile_really_has_ten_samples_beyond(self):
        for n in range(1, 1100):
            p = summary.tail_percentile(n)
            if p is None:
                assert summary.samples_beyond(n, 50.0) < 10
                continue
            values = list(range(n))
            assert sum(v > summary.percentile(values, p) for v in values) >= 10
            higher = [c for c in summary.TAIL_CANDIDATES if c > p]
            assert all(summary.samples_beyond(n, c) < 10 for c in higher)

    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert summary.percentile(values, 50) == 3.0
        assert summary.percentile(values, 100) == 5.0
        assert summary.percentile(values, 1) == 1.0

    def test_latency_summary_names_the_tail_it_reports(self):
        s = summary.latency_summary([i / 1000.0 for i in range(1, 1001)])
        assert s["n"] == 1000 and s["tail"] == "p99"
        assert s["tail_ms"] == pytest.approx(990.0)
        assert "tail" not in summary.latency_summary([0.001] * 20)


class TestSelfTime:
    def spans(self):
        return [
            Span("evaluation.train_probe", -1, 0.0, 10.0),
            Span("numerics.backward", 0, 1.0, 4.0),
            Span("numerics.mlp_forward", 1, 2.0, 3.0),
            Span("numerics.adam_step", 0, 3.5, 6.0),  # overlaps its sibling
            Span("training.train", -1, 20.0, 30.0),
            Span("numerics.backward", 4, 21.0, 29.0),
        ]

    def test_self_time_subtracts_covered_child_intervals(self):
        selfs = self_times(self.spans())
        # children of the root cover [1, 6] once, though they overlap
        assert selfs[0] == pytest.approx(5.0)
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[2] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(2.5)
        assert selfs[4] == pytest.approx(2.0)

    def test_self_times_add_up_to_root_durations(self):
        spans = self.spans()
        spans[3].start = 4.0  # make the children disjoint
        assert sum(self_times(spans)) == pytest.approx(10.0 + 10.0)

    def test_numerics_is_charged_to_its_caller(self):
        spans = self.spans()
        assert charged_module(spans, 1) == "evaluation"
        assert charged_module(spans, 2) == "evaluation"
        assert charged_module(spans, 5) == "training"
        assert charged_module(spans, 4) == "training"


class _SortedProbe:
    """Accepts stack i of the batch at search round i, so the stacks stop
    after 0, 1, 2, ... steps."""

    def __init__(self, stacks):
        self.round = 0
        self.pending = list(range(len(stacks)))

    def target_confidence(self, codes, attr_index, direction):
        accepted = np.array([idx <= self.round for idx in self.pending])
        self.pending = [idx for idx, ok in zip(self.pending, accepted) if not ok]
        self.round += 1
        return accepted.astype(float)


def test_useful_row_ratio_is_one_for_the_linear_step_search():
    import flowplug.editing as editing
    from flowplug import FlowConfig, PriorConfig, StyleStack, build_flow
    from layers import edit_search_stats
    from spans import children_of

    rng = np.random.default_rng(0)
    model = build_flow(PriorConfig(num_attrs=2, latent_dim=6), 3, FlowConfig(num_couplings=2, hidden_width=8), 0)
    stacks = [StyleStack(rng.normal(size=(3, 6)), np.array([1.0, -1.0]), 0, i) for i in range(5)]
    tracer = Tracer()
    tracer.install()
    try:
        results = editing.minimal_edit_batch(
            model, stacks, 0, 1, _SortedProbe(stacks), tau=0.5, delta=0.25, max_steps=12
        )
    finally:
        tracer.uninstall()
    steps = [r.steps_used for r in results]
    assert len(set(steps)) > 1, "stacks should stop after different step counts"
    spans = tracer.spans
    stats = edit_search_stats(spans, children_of(spans), [i for i, s in enumerate(spans) if s.name == "editing.minimal_edit_batch"])
    assert stats["useful_ratio"] == 1.0
    assert stats["rows"] == sum((s + 1) * model.num_codes for s in steps)
    assert stats["rounds"] == max(steps) + 1
    assert sum(stats["hist"].values()) == len(stacks)


def test_tracer_restores_every_binding():
    import flowplug.evaluation as evaluation
    import flowplug.training as training
    from flowplug.numerics import Mlp, autodiff

    before = (training.backward, evaluation.backward, autodiff.backward, Mlp.forward, autodiff.matmul)
    tracer = Tracer()
    tracer.install()
    assert training.backward is not before[0] and evaluation.backward is not before[1]
    tracer.uninstall()
    assert (training.backward, evaluation.backward, autodiff.backward, Mlp.forward, autodiff.matmul) == before


def test_benchmark_spans_are_recorded_only_while_installed():
    tracer = Tracer()
    with tracer.span("cli.train"):
        pass
    tracer.install()
    with tracer.span("cli.train"):
        pass
    tracer.uninstall()
    with tracer.span("cli.train"):
        pass
    assert [s.name for s in tracer.spans] == ["cli.train"]


def test_benchmark_json_lists_what_the_benchmark_reports():
    from layers import PER_LAYER
    from run import END_TO_END

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == ["pipeline", "evaluate"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_tracer_refuses_a_missing_target(monkeypatch):
    import spans
    import flowplug.training as training

    before = training.backward
    monkeypatch.setattr(spans, "FUNCTION_TARGETS", spans.FUNCTION_TARGETS + [("flowplug.training", "no_such_fn", "x.y")])
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no_such_fn"):
        tracer.install()
    assert not tracer.installed and training.backward is before


def test_expectations_are_kept_per_source_tree(tmp_path):
    from workloads import Run, compare_expectation

    def check(src, value):
        run = Run("evaluate", 3, src, tmp_path / "work")
        compare_expectation(run, "report_digest", value, tmp_path / "expect")
        return [c["ok"] for c in run.checks]

    assert check("a" * 64, "x") == []  # first run of these sources stores
    assert check("b" * 64, "y") == []  # other sources start their own
    assert check("a" * 64, "x") == [True]
    assert check("a" * 64, "z") == [False]
