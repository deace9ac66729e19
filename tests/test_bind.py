"""Binding a compiled stream (``repro.engine.compile.bind_stream``).

Binding is invisible: for random argument trees -- constants, ``Ref``s
with and without an index to local, remote and input-leaf producers,
nested lists / tuples / dicts -- a bound task's ``make_args()`` equals
what the per-argument closure resolution it replaced returns (kept
below as the oracle), under the thread binding and an mp-style one.

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
# The oracle: one zero-argument closure per argument, resolved recursively
# ----------------------------------------------------------------------

def _closure_maker(obj, consumer, widx, owner, input_fetch, remote_fetch):
    if isinstance(obj, Ref):
        dep, sel = obj.task, obj.index
        if dep.is_input:
            if input_fetch is None:
                if sel is None:
                    return lambda: dep.value
                return lambda: dep.value[sel]
            if sel is None:
                return lambda: input_fetch(dep)
            return lambda: input_fetch(dep)[sel]
        o = owner[dep.tid]
        if o == widx or o == REPLICATED:
            if sel is None:
                return lambda: dep.value
            return lambda: dep.value[sel]
        if sel is None:
            return lambda: remote_fetch(dep, consumer)
        return lambda: remote_fetch(dep, consumer)[sel]
    if isinstance(obj, (list, tuple)):
        subs = [_closure_maker(o, consumer, widx, owner, input_fetch, remote_fetch)
                for o in obj]
        if all(s is None for s in subs):
            return None
        fns = [s if s is not None else (lambda v=v: v) for s, v in zip(subs, obj)]
        if isinstance(obj, list):
            return lambda: [f() for f in fns]
        return lambda: tuple(f() for f in fns)
    if isinstance(obj, dict):
        subs = {k: _closure_maker(v, consumer, widx, owner, input_fetch, remote_fetch)
                for k, v in obj.items()}
        if all(s is None for s in subs.values()):
            return None
        pairs = [(k, s if s is not None else (lambda v=obj[k]: v)) for k, s in subs.items()]
        return lambda: {k: f() for k, f in pairs}
    return None


def _closure_args(task, widx, owner, input_fetch, remote_fetch):
    subs = [_closure_maker(a, task, widx, owner, input_fetch, remote_fetch)
            for a in task.args]
    if all(s is None for s in subs):
        return task.args
    return tuple(s() if s is not None else v for s, v in zip(subs, task.args))


def _same(a, b):
    """Equal structure, identical leaves (values are sentinel objects)."""
    if isinstance(b, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(b, dict):
        return (type(a) is dict and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in b))
    return a is b


def _holds_ref(obj):
    if isinstance(obj, Ref):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_holds_ref(o) for o in obj)
    if isinstance(obj, dict):
        return any(_holds_ref(o) for o in obj.values())
    return False


def _values():
    return tuple(object() for _ in range(3))


# ----------------------------------------------------------------------
# Binding is invisible
# ----------------------------------------------------------------------

RANKS = st.sampled_from([None, 0, 1, 2, 3])
CONSTANTS = st.one_of(st.none(), st.integers(-3, 3), st.text("xy", max_size=2))


def _tree(sources):
    ref = st.builds(Ref, st.sampled_from(sources), st.sampled_from([None, 0, 2]))
    return st.recursive(
        st.one_of(CONSTANTS, ref),
        lambda kids: st.one_of(
            st.lists(kids, max_size=3),
            st.lists(kids, max_size=3).map(tuple),
            st.dictionaries(st.sampled_from("abc"), kids, max_size=3),
        ),
        max_leaves=8,
    )


class TestBindingIsInvisible:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mp=st.booleans(), workers=st.integers(1, 3))
    def test_make_args_equals_the_closure_resolution(self, data, mp, workers):
        plan = Plan()
        sources = [plan.add_input(_values(), label=f"in{k}") for k in range(2)]
        for k in range(data.draw(st.integers(1, 4), label="producers")):
            sources.append(plan.add(None, (), rank=data.draw(RANKS), label=f"p{k}"))
        tree = _tree(sources)
        for k in range(data.draw(st.integers(1, 6), label="consumers")):
            args = tuple(data.draw(st.lists(tree, max_size=4), label=f"args{k}"))
            plan.add(None, args, rank=data.draw(RANKS), label=f"c{k}")
        cp = compile_plan(plan, workers, replicate_rankless=mp)

        fetched = {leaf.tid: _values() for leaf in plan.inputs}
        remote: dict[tuple[int, int], tuple] = {}

        def input_fetch(leaf):
            return fetched[leaf.tid]

        def remote_fetch(dep, consumer):
            return remote.setdefault((dep.tid, consumer.tid), _values())

        leaf_fetch = input_fetch if mp else None
        for widx in range(cp.workers):
            bound = bind_stream(cp, widx, leaf_fetch, remote_fetch)
            assert [bt.task for bt in bound] == cp.streams[widx]
            for _ in range(2):
                # Producer values are read at call time: a rebind and a
                # reset between replays change what the binding returns.
                for t in plan.tasks:
                    t.value = _values()
                for bt in bound:
                    t = bt.task
                    want = _closure_args(t, widx, cp.owner, leaf_fetch, remote_fetch)
                    got = bt.make_args()
                    assert (got is t.args) == (want is t.args)
                    assert _same(tuple(got), want)
                    assert (bt.reads is None) == (want is t.args)
                    for i, dep, sel in bt.reads or ():
                        assert t.args[i].task is dep and t.args[i].index is sel
                    # One entry per argument that holds a Ref, none for
                    # a constant (a constant-only container included).
                    read = [i for i, _, _ in bt.reads or ()]
                    made = [i for i, _ in bt.makers]
                    assert sorted(read + made) == [
                        i for i, a in enumerate(t.args) if _holds_ref(a)
                    ]


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
        bound = bind_stream(cp, 0, None, None)
        made = len(gc.get_objects()) - before
    finally:
        gc.enable()
    tasks = len(bound)
    assert tasks > 3000
    # The per-argument closures made 15.0 per task here.
    assert made / tasks <= 6.0, f"{made / tasks:.2f} GC-tracked objects per task"
