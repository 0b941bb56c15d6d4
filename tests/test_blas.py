"""The CPU owner: the size-balanced split and the one second-process helper
that training and evaluation share."""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplug import blas
from flowplug.errors import WorkerError


class TestBalancedHalves:
    def test_largest_first_each_to_the_side_holding_less(self):
        # 5 to side 0, then 3 and 1 to side 1, which holds less
        assert blas.balanced_halves([1, 5, 3]) == [1, 0, 1]

    def test_ties_go_to_side_0(self):
        # after 4 | 2 + 2 the loads are equal, so the 1 goes to side 0
        assert blas.balanced_halves([4, 2, 2, 1]) == [0, 1, 1, 0]

    def test_equal_sizes_keep_their_given_order(self):
        assert blas.balanced_halves([3, 3, 3, 3, 3]) == [0, 1, 0, 1, 0]
        assert blas.balanced_halves([1, 2, 2]) == [0, 0, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1000), max_size=30))
    def test_the_sides_differ_by_at_most_the_largest_item(self, sizes):
        sides = blas.balanced_halves(sizes)
        assert len(sides) == len(sizes) and set(sides) <= {0, 1}
        load = [sum(n for n, s in zip(sizes, sides) if s == side) for side in (0, 1)]
        assert abs(load[0] - load[1]) <= max(sizes, default=0)


def _serve(op, *args):
    if op == "pid":
        return os.getpid()
    raise ValueError(f"unknown op {op}")


class TestSecondProcess:
    def test_in_turn_until_entered_and_after_the_first_half(self):
        order = []
        second = blas.SecondProcess("the test process", lambda op, x: order.append(op) or x + 1)
        second.call("second", 1)
        assert order == [] and not second.forked
        assert second.alongside(lambda: order.append("first")) == (None, 2)
        assert order == ["first", "second"]

    def test_one_call_pending_at_a_time(self):
        second = blas.SecondProcess("the test process", _serve)
        with pytest.raises(WorkerError, match="no call is pending on the test process"):
            second.result()
        second.call("pid")
        with pytest.raises(WorkerError, match="the test process still has a pid call pending"):
            second.call("pid")

    @pytest.mark.usefixtures("hang_watchdog")
    def test_serves_on_a_forked_process_where_two_may_share_the_work(self, monkeypatch):
        with blas.SecondProcess("the test process", _serve) as second:
            if not second.forked:
                pytest.skip("no second process may share the work here")
            second.call("pid")
            assert second.result() != os.getpid()
            second.call("other")
            with pytest.raises(WorkerError, match="other failed on the test process: ValueError: unknown op other"):
                second.result()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(blas, "may_fork", lambda: False)
        with blas.SecondProcess("the test process", _serve) as second:
            second.call("pid")
            assert not second.forked and second.result() == os.getpid()
