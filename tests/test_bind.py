"""Binding a compiled stream (``repro.engine.compile.bind_stream``).

Binding is invisible: for random flat argument tuples -- constants and
``Ref``s with and without an index to local, remote and input-leaf
producers -- a bound task's ``run(fetch)`` calls ``fn`` with what a
per-argument closure resolution returns (kept below as the oracle),
under the thread binding and an mp-style one.

Binding stays lean: a tripwire on the GC-tracked objects that binding
the ``grid2d-percolumn`` plan (house2d 384x96, P = 8) allocates per
task.  The count is process-wide, so CI also runs this file on its own.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Plan, Ref, compile_plan
from repro.engine.compile import REPLICATED, bind_stream


# ----------------------------------------------------------------------
# The oracle: one zero-argument closure per Ref argument
# ----------------------------------------------------------------------

def _closure_maker(obj, consumer, widx, owner, fetch_inputs, fetch):
    if not isinstance(obj, Ref):
        return None
    dep, sel = obj.task, obj.index
    if dep.is_input:
        direct = not fetch_inputs
    else:
        direct = owner[dep.tid] in (widx, REPLICATED)
    if direct:
        if sel is None:
            return lambda: dep.value
        return lambda: dep.value[sel]
    if sel is None:
        return lambda: fetch(dep, consumer)
    return lambda: fetch(dep, consumer)[sel]


def _closure_args(task, widx, owner, fetch_inputs, fetch):
    subs = [_closure_maker(a, task, widx, owner, fetch_inputs, fetch) for a in task.args]
    return tuple(s() if s is not None else v for s, v in zip(subs, task.args))


def _echo(*args):
    return args


def _values():
    return tuple(object() for _ in range(3))


# ----------------------------------------------------------------------
# Binding is invisible
# ----------------------------------------------------------------------

RANKS = st.sampled_from([None, 0, 1, 2, 3])
CONSTANTS = st.one_of(st.none(), st.integers(-3, 3), st.text("xy", max_size=2))


class TestBindingIsInvisible:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mp=st.booleans(), workers=st.integers(1, 3))
    def test_run_calls_fn_with_the_closure_resolution(self, data, mp, workers):
        plan = Plan()
        sources = [plan.add_input(_values(), label=f"in{k}") for k in range(2)]
        for k in range(data.draw(st.integers(1, 4), label="producers")):
            sources.append(plan.add(None, (), rank=data.draw(RANKS), label=f"p{k}"))
        arg = st.one_of(
            CONSTANTS,
            st.builds(Ref, st.sampled_from(sources), st.sampled_from([None, 0, 2])),
        )
        for k in range(data.draw(st.integers(1, 6), label="consumers")):
            args = tuple(data.draw(st.lists(arg, max_size=4), label=f"args{k}"))
            plan.add(_echo, args, rank=data.draw(RANKS), label=f"c{k}")
        cp = compile_plan(plan, workers, replicate_rankless=mp)

        fetched = {leaf.tid: _values() for leaf in plan.inputs}
        remote: dict[tuple[int, int], tuple] = {}

        def fetch(dep, consumer):
            if dep.is_input:
                assert mp, "a thread lane reads its input leaves directly"
                return fetched[dep.tid]
            return remote.setdefault((dep.tid, consumer.tid), _values())

        for widx in range(cp.workers):
            bound = bind_stream(cp, widx, fetch_inputs=mp)
            assert [bt.task for bt in bound] == cp.streams[widx]
            for _ in range(2):
                # Producer values are read at call time: a rebind and a
                # reset between replays change what the binding returns.
                for t in plan.tasks:
                    t.value = _values()
                for bt in bound:
                    t = bt.task
                    if t.fn is not _echo:
                        continue
                    want = _closure_args(t, widx, cp.owner, mp, fetch)
                    got = bt.run(fetch)
                    assert len(got) == len(want)
                    assert all(g is w for g, w in zip(got, want))
                    refs = [i for i, a in enumerate(t.args) if isinstance(a, Ref)]
                    assert (bt.reads is None) == (not refs)
                    # One triple per Ref argument, none for a constant.
                    entries = (bt.reads or ()) + bt.fetches
                    for i, dep, sel in entries:
                        assert t.args[i].task is dep and t.args[i].index is sel
                    assert sorted(i for i, _, _ in entries) == refs


# ----------------------------------------------------------------------
# Binding stays lean
# ----------------------------------------------------------------------

def test_binding_grid2d_percolumn_makes_at_most_six_gc_objects_per_task():
    from repro.machine import Machine
    from repro.workloads import drive, gaussian

    machine = Machine(8, backend="parallel", workers=2)
    drive("house2d", machine, gaussian(384, 96, seed=0), {}, validate=False)
    cp = compile_plan(machine.plan, 1)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        bound = bind_stream(cp, 0)
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    tasks = len(bound)
    assert tasks > 3000
    # The per-argument closures made 15.0 per task here.
    assert made / tasks <= 6.0, f"{made / tasks:.2f} GC-tracked objects per task"
