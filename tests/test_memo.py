"""``repro.util.memo.Memo``: the one byte-budgeted LRU behind the process's caches.

The plan cache, the schedule memo and the route memo are each a
``Memo``; their own test files pin what each owner does around it.
This file pins the class itself:

* against a plain-list model, random ``get`` / ``put`` / grow sequences
  keep the same least-recently-used order and evict the same entries,
  a ``put`` never evicts the entry it stores, and after it the total is
  at most the budget plus that entry -- sizes given as callables (an
  entry that grows after it is stored, as a route does) included;
* concurrent ``put`` / ``get`` from several threads leave ``nbytes()``
  equal to the sum over the entries held.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.memo import Memo


class _Growing:
    """A size that changes after its entry is stored."""

    def __init__(self, nbytes: int) -> None:
        self.value = nbytes

    def __call__(self) -> int:
        return self.value


def _size(nbytes) -> int:
    return nbytes() if callable(nbytes) else nbytes


_KEYS = st.integers(0, 5)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _KEYS),
        st.tuples(st.just("put"), _KEYS, st.integers(0, 30), st.booleans()),
        st.tuples(st.just("grow"), _KEYS, st.integers(0, 10)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(budget=st.integers(0, 60), ops=_OPS)
def test_random_sequences_match_a_list_model(budget, ops):
    memo = Memo(budget)
    model: list[list] = []          # [key, value, nbytes], least recent first

    def find(key):
        return next((i for i, (k, _, _) in enumerate(model) if k == key), None)

    for step, op in enumerate(ops):
        if op[0] == "get":
            i = find(op[1])
            want = None if i is None else model[i][1]
            if i is not None:
                model.append(model.pop(i))
            assert memo.get(op[1]) is want
        elif op[0] == "grow":
            i = find(op[1])
            if i is not None and callable(model[i][2]):
                model[i][2].value += op[2]
        else:
            _, key, nbytes, grows = op
            value = object()
            size = _Growing(nbytes) if grows else nbytes
            i = find(key)
            if i is not None:
                model.pop(i)
            model.append([key, value, size])
            total = sum(_size(n) for _, _, n in model)
            evicted = []
            while total > budget and len(model) > 1:
                k, v, n = model.pop(0)
                total -= _size(n)
                evicted.append((k, v))
            got = memo.put(key, value, size)
            assert [(k, v) for k, v in got] == evicted
            assert memo.get(key) is value              # never evicted by its own put
            assert memo.nbytes() <= budget + _size(size)
        assert memo.keys() == [k for k, _, _ in model], step
        assert memo.entries() == [v for _, v, _ in model]
        assert memo.nbytes() == sum(_size(n) for _, _, n in model)
        assert len(memo) == len(model)
    assert memo.clear() == [(k, v) for k, v, _ in model]
    assert len(memo) == 0 and memo.nbytes() == 0


def test_concurrent_puts_and_gets_keep_the_byte_count():
    # Each value is its own size, so the held entries say what the
    # total must be; a lost update of the order or the count breaks it.
    memo = Memo(budget=400)
    start = threading.Barrier(6)
    errors: list[BaseException] = []

    def worker(seed):
        rng = random.Random(seed)
        start.wait()
        try:
            for _ in range(3000):
                key = rng.randrange(40)
                if rng.random() < 0.5:
                    nbytes = rng.randrange(1, 60)
                    memo.put(key, nbytes, nbytes)
                else:
                    memo.get(key)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and errors == []
    held = memo.entries()
    assert len(set(memo.keys())) == len(held) == len(memo)
    assert memo.nbytes() == sum(held)
    assert memo.nbytes() <= memo.budget + 59
