"""Budgets per context: asyncio tasks and threads see only their own
with-blocks, and nested raw meters draw from their enclosing meter."""

import asyncio
import sys
import threading
import time

import pytest

from clusterfrob import QQ, BudgetExceededError, LaurentPoly, budgets
from clusterfrob.budgets import Budgets

# two equal 10-term polynomials: their product costs 100 raw products.
# They are distinct objects, for TEN * TEN is a square, which costs 55.
TEN = LaurentPoly.from_terms(QQ, 1, {(i,): 1 for i in range(10)})
TEN2 = LaurentPoly.from_terms(QQ, 1, {(i,): 1 for i in range(10)})


def test_limits_invisible_to_sibling_task():
    async def main():
        inside = asyncio.Event()
        done = asyncio.Event()
        seen = {}

        async def limited():
            with budgets.limits(max_terms=3):
                inside.set()
                await done.wait()
                seen["limited"] = budgets.current().max_terms

        async def sibling():
            await inside.wait()
            seen["sibling"] = budgets.current().max_terms
            done.set()

        await asyncio.gather(limited(), sibling())
        return seen

    seen = asyncio.run(main())
    assert seen == {"limited": 3, "sibling": Budgets().max_terms}
    assert budgets.current() == Budgets()


def test_limits_exiting_out_of_order_across_threads():
    # thread a enters first and exits first, while thread b is still inside
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = {}

    def a():
        with budgets.limits(max_terms=5):
            a_in.set()
            b_in.wait(5)
            seen["a"] = budgets.current().max_terms
        a_out.set()

    def b():
        a_in.wait(5)
        with budgets.limits(max_terms=3):
            b_in.set()
            a_out.wait(5)
            seen["b"] = budgets.current().max_terms

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert seen == {"a": 5, "b": 3}
    assert budgets.current() == Budgets()
    TEN * TEN  # 19 terms: no max_terms override is left behind


def test_threads_see_only_their_own_limits():
    # more threads than cores, switching as often as the interpreter can
    wrong = []

    def worker(i):
        for _ in range(200):
            with budgets.limits(max_terms=i):
                time.sleep(0)  # the other threads run inside this block
                if budgets.current().max_terms != i:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert budgets.current() == Budgets()


def test_nested_meter_is_capped_and_drains_outer():
    with budgets.raw_meter(150) as outer:
        with budgets.raw_meter(10**6) as inner:
            assert inner[0] == 150
            TEN * TEN2
            assert inner[0] == 50
        assert outer[0] == 50
        with budgets.raw_meter(20) as inner:
            assert inner[0] == 20
        assert outer[0] == 50


def test_nested_meter_drains_outer_when_block_raises():
    with budgets.raw_meter(250) as outer:
        with pytest.raises(ValueError):
            with budgets.raw_meter():
                TEN * TEN2
                raise ValueError("not a budget error")
        assert outer[0] == 150
        with pytest.raises(BudgetExceededError) as err:
            with budgets.raw_meter(10**6):
                TEN * TEN2
                TEN * TEN2
        assert err.value.budget == "max_raw_products"
        assert outer[0] == 0
    assert budgets.raw_allowance() == [Budgets().max_raw_products]


def test_limits_keep_the_active_meter():
    with budgets.raw_meter(150) as outer:
        with budgets.limits(max_terms=50):
            assert budgets.raw_allowance() is outer
            TEN * TEN2
    assert outer[0] == 50
