"""Lazy arrays: eager shape/dtype metadata over deferred numpy values.

A :class:`LazyArray` is how the parallel backend turns the algorithms'
(unchanged) numpy code into an execution plan.  It pairs

* a **meta**: a shape/dtype-only
  :class:`~repro.backend.symbolic.SymbolicArray`, available eagerly so
  the machine can meter every transfer (``words_of`` reads ``.size``)
  and every flop formula during plan construction, with
* a **ref**: a :class:`~repro.engine.plan.Ref` to the plan task that
  will produce the actual ndarray when the engine executes.

Every numpy operation on a lazy array does the operation *twice*: once
on the metas (through the symbolic backend's protocol handlers, giving
the result shape/dtype now) and once deferred (appending a plan task
whose thunk applies the real numpy function to the materialized
inputs).  Because the symbolic backend already mirrors exactly the
numpy subset the library uses -- pinned by the backend-equivalence
tests -- the lazy layer inherits that fidelity.

Writes (``lazy[idx] = value``, ``updates=`` kernels) rebind the written
array's ref to the writing task's output and note which written arrays
are *fresh* (``zeros`` / ``eye`` / ``copy`` / a kernel result / a
previous write; an operator result is not).  A transferred value is the
sender's own array -- a message is an edge, not a task -- so it is
exactly as fresh as it was on the sender.  Whether a write touches the
producer's buffer or a copy is decided later, by the plan compiler,
which can see every consumer (:mod:`repro.engine.compile`).

:class:`ParallelOps` is the machine-bound creation backend
(``machine.ops``) for ``backend="parallel"``: creation returns lazy
leaves, and coercing a real ndarray registers it as a plan *input
leaf* -- the replay boundary :func:`repro.engine.run_many` rebinds.

Paper anchor: Section 3 (deferred construction of the execution DAG).
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.backend.symbolic import SymbolicArray, dtype_of
from repro.engine.plan import CONTAINERS, EngineError, Plan, Ref, check_flat

__all__ = [
    "LazyArray",
    "ParallelOps",
    "defer",
    "output_tids",
    "resolve",
]


def _meta_of(x: Any) -> Any:
    return x.meta if isinstance(x, LazyArray) else x


def _map_structure(obj: Any, leaf: Callable[[Any], Any]) -> Any:
    """Apply ``leaf`` to every element of a (possibly nested) structure."""
    if isinstance(obj, LazyArray):
        return leaf(obj)
    if isinstance(obj, list):
        return [_map_structure(o, leaf) for o in obj]
    if isinstance(obj, tuple):
        return tuple(_map_structure(o, leaf) for o in obj)
    if isinstance(obj, dict):
        return {k: _map_structure(v, leaf) for k, v in obj.items()}
    return obj


def _scan_lazies(obj: Any, out: list["LazyArray"]) -> None:
    if isinstance(obj, LazyArray):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for o in obj:
            _scan_lazies(o, out)
    elif isinstance(obj, dict):
        for o in obj.values():
            _scan_lazies(o, out)


def defer(
    plan: Plan,
    fn: Callable[..., Any],
    args: tuple,
    meta: Any,
    rank: int | None = None,
    label: str = "",
    fresh: bool = False,
    updates: tuple[int, ...] = (),
) -> Any:
    """Append ``fn(*args)`` to ``plan`` and wrap its output(s) lazily.

    ``args`` may mix eager values and :class:`LazyArray` operands; the
    executor materializes the lazy ones before calling ``fn``.  A lazy
    operand must be a top-level argument: one inside a list, tuple or
    dict raises :class:`~repro.engine.plan.EngineError`.  ``fn`` must
    not close over a lazy array (that would tie the plan into a
    reference cycle): pass lazies as arguments.  ``meta`` is the
    symbolic result: one :class:`SymbolicArray` for a single output, or
    a tuple of them for a multi-output task (``fn`` must then return a
    matching tuple).
    When ``rank`` is ``None`` it is inherited from the first lazy
    operand that carries one.

    ``args`` are walked once: each lazy is swapped for its ``Ref``, the
    first ranked one lends its rank, a handle inside a container is
    rejected and each ``Ref``'s position is noted for
    :meth:`Plan.add <repro.engine.plan.Plan.add>`, which then scans
    nothing.

    ``updates`` lists the positions in ``args`` of lazy arrays ``fn``
    writes in place (``meta`` may then be ``None``: nothing but the
    writes).  Each is rebound to the task's written output, so the
    caller's array objects stay current; ``fn`` is recorded raw, and
    the plan compiler decides per position whether it is handed the
    producer's buffer or a copy (:class:`~repro.engine.plan.Writes`).
    ``fresh`` declares every result a new allocation of its own, sharing
    memory with no argument and no other result (:attr:`Task.fresh
    <repro.engine.plan.Task>`; the ``machine.kernel`` contract).
    """
    exec_args = []
    positions = []
    for a in args:
        if isinstance(a, LazyArray):
            a = a.ref
            if rank is None:
                rank = a.task.rank
            positions.append(len(exec_args))
        elif type(a) is Ref:
            positions.append(len(exec_args))
        elif isinstance(a, CONTAINERS):
            check_flat(label, a)
        exec_args.append(a)
    if not updates:
        task = plan.add(fn, tuple(exec_args), rank, label, tuple(positions), None, fresh)
        if isinstance(meta, tuple):
            return tuple([LazyArray(plan, m, Ref(task, k), fresh) for k, m in enumerate(meta)])
        return LazyArray(plan, meta, Ref(task), fresh)

    fresh_targets = ()
    for i in updates:
        la = args[i]
        if not isinstance(la, LazyArray):
            raise EngineError("defer(updates=...) positions must hold lazy arrays")
        if la._fresh:
            fresh_targets += (i,)
    writes = plan.writes(tuple(updates), fresh_targets, isinstance(meta, tuple))
    task = plan.add(fn, tuple(exec_args), rank, label, tuple(positions), writes, fresh)
    k = 0  # an updating task's outputs follow its written arrays
    for i in updates:
        la = args[i]
        la.ref = Ref(task, k)
        la._fresh = True
        k += 1
    if isinstance(meta, tuple):
        return tuple([LazyArray(plan, m, Ref(task, k + j), fresh) for j, m in enumerate(meta)])
    return None if meta is None else LazyArray(plan, meta, Ref(task, k), fresh)


def output_tids(obj: Any) -> tuple[int, ...]:
    """The producing-task tids of every :class:`LazyArray` in ``obj``.

    This is the ``outputs=`` hint for ``engine.execute``: the set of
    task values a subsequent :func:`resolve` of ``obj`` will read, which
    an out-of-process engine must ship back to this address space.
    """
    lazies: list[LazyArray] = []
    _scan_lazies(obj, lazies)
    return tuple(dict.fromkeys(la.ref.task.tid for la in lazies))


def resolve(obj: Any) -> Any:
    """Replace every executed :class:`LazyArray` in ``obj`` by its value."""
    if isinstance(obj, LazyArray):
        task = obj.ref.task
        if not task.done:
            raise EngineError(
                f"cannot resolve t{task.tid} ({task.label!r}): not executed yet"
            )
        value = task.value
        return value if obj.ref.index is None else value[obj.ref.index]
    if isinstance(obj, (list, tuple)):
        kind = type(obj)
        return kind(resolve(o) for o in obj)
    if isinstance(obj, dict):
        return {k: resolve(v) for k, v in obj.items()}
    return obj


def _apply_function(func: Callable[..., Any], spec: tuple, kwnames: tuple, *vals: Any) -> Any:
    """``func(*args, **kwargs)`` from the flat values a task was handed.

    ``spec`` has one entry per positional argument: ``None`` takes one
    value, ``(kind, count)`` regroups the next ``count`` values into a
    ``kind`` (a list or a tuple); the values left over are the keyword
    arguments named ``kwnames``.

    >>> _apply_function(np.concatenate, ((list, 2),), ("axis",), np.ones(1), np.zeros(1), 0).tolist()
    [1.0, 0.0]
    """
    args = []
    i = 0
    for s in spec:
        if s is None:
            args.append(vals[i])
            i += 1
        else:
            kind, count = s
            args.append(kind(vals[i:i + count]))
            i += count
    return func(*args, **dict(zip(kwnames, vals[i:])))


# The structural ops' task functions: module-level, so recording one
# allocates no function object (and no cell) per task.
_T = operator.attrgetter("T")
_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")
_COPY = operator.methodcaller("copy")


def _reshape(a, *shape):
    return a.reshape(*shape)


def _transpose(a, *axes):
    return a.transpose(*axes)


def _astype(a, dtype, copy):
    return a.astype(dtype, copy=copy)


class LazyArray:
    """A deferred ndarray: eager ``shape``/``dtype``, value computed later.

    Participates in numpy's ``__array_ufunc__`` / ``__array_function__``
    protocols exactly like :class:`SymbolicArray` -- but instead of
    *discarding* the values it *postpones* them, recording one plan
    task per operation.
    """

    __slots__ = ("plan", "meta", "ref", "_fresh")

    #: Duck-typing marker checked by modules that must not import the
    #: engine at module load time (``words_of``, collective dispatch).
    _repro_lazy_ = True

    def __init__(
        self, plan: Plan, meta: SymbolicArray, ref: Ref, fresh: bool = False
    ) -> None:
        self.plan = plan
        self.meta = meta
        self.ref = ref
        #: True when the producing task allocated this array for us
        #: (``zeros`` / ``copy`` / a kernel result / a previous write):
        #: one of the plan compiler's conditions for writing it in place.
        self._fresh = fresh

    # ------------------------------------------------------------------
    # Shape attributes (eager, from the meta)
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.meta.shape

    @property
    def dtype(self) -> np.dtype:
        return self.meta.dtype

    @property
    def size(self) -> int:
        return self.meta.size

    @property
    def ndim(self) -> int:
        return self.meta.ndim

    def __len__(self) -> int:
        return len(self.meta)

    # ------------------------------------------------------------------
    # Deferral core
    # ------------------------------------------------------------------
    def _defer(
        self, fn: Callable[..., Any], args: tuple, meta: Any,
        label: str = "", fresh: bool = False,
    ) -> "LazyArray":
        return defer(self.plan, fn, args, meta, label=label, fresh=fresh)

    # ------------------------------------------------------------------
    # Structural ops
    # ------------------------------------------------------------------
    @property
    def T(self) -> "LazyArray":
        return self._defer(_T, (self,), self.meta.T, label="T")

    @property
    def real(self) -> "LazyArray":
        return self._defer(_REAL, (self,), self.meta.real, label="real")

    @property
    def imag(self) -> "LazyArray":
        return self._defer(_IMAG, (self,), self.meta.imag, label="imag")

    def reshape(self, *shape) -> "LazyArray":
        return self._defer(
            _reshape, (self, *shape), self.meta.reshape(*shape),
            label="reshape",
        )

    def ravel(self) -> "LazyArray":
        return self.reshape(self.size)

    def transpose(self, *axes) -> "LazyArray":
        return self._defer(
            _transpose, (self, *axes), self.meta.transpose(*axes),
            label="transpose",
        )

    def conj(self) -> "LazyArray":
        if self.dtype.kind != "c":
            return self  # real data: conjugation is the identity
        return self._defer(np.conjugate, (self,), self.meta, label="conj")

    conjugate = conj

    def copy(self) -> "LazyArray":
        return self._defer(
            _COPY, (self,), self.meta, label="copy", fresh=True
        )

    def astype(self, dtype, copy: bool = True) -> "LazyArray":
        dtype = np.dtype(dtype)
        if dtype == self.dtype and not copy:
            return self
        return self._defer(
            _astype, (self, dtype, copy),
            SymbolicArray(self.shape, dtype), label="astype", fresh=copy,
        )

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def __getitem__(self, idx) -> "LazyArray":
        meta = self.meta[idx]  # validates and computes the result shape
        return self._defer(operator.getitem, (self, idx), meta, label="getitem")

    def __setitem__(self, idx, value) -> None:
        self.meta[idx]  # validate the index shape eagerly
        defer(
            self.plan, operator.setitem, (self, idx, value), None,
            rank=self.ref.task.rank, label="setitem", updates=(0,),
        )

    # ------------------------------------------------------------------
    # Arithmetic (routed through the ufunc protocol)
    # ------------------------------------------------------------------
    def __add__(self, other):
        return np.add(self, other)

    def __radd__(self, other):
        return np.add(other, self)

    def __sub__(self, other):
        return np.subtract(self, other)

    def __rsub__(self, other):
        return np.subtract(other, self)

    def __mul__(self, other):
        return np.multiply(self, other)

    def __rmul__(self, other):
        return np.multiply(other, self)

    def __truediv__(self, other):
        return np.true_divide(self, other)

    def __rtruediv__(self, other):
        return np.true_divide(other, self)

    def __pow__(self, other):
        return np.power(self, other)

    def __neg__(self):
        return np.negative(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return np.absolute(self)

    def __matmul__(self, other):
        return np.matmul(self, other)

    def __rmatmul__(self, other):
        return np.matmul(other, self)

    def __lt__(self, other):
        return np.less(self, other)

    def __le__(self, other):
        return np.less_equal(self, other)

    def __gt__(self, other):
        return np.greater(self, other)

    def __ge__(self, other):
        return np.greater_equal(self, other)

    def __bool__(self) -> bool:
        raise TypeError(
            "lazy arrays have no values yet; materialize the machine "
            "before branching on data"
        )

    def __float__(self) -> float:
        raise TypeError("lazy arrays have no values yet; materialize first")

    def __array__(self, dtype=None, copy=None):  # pragma: no cover - guard
        raise TypeError(
            "a LazyArray cannot be silently converted to an ndarray; "
            "route the operation through the numpy protocols or "
            "materialize the machine first"
        )

    # ------------------------------------------------------------------
    # numpy protocol hooks
    # ------------------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.pop("out", None)
        meta_kwargs = dict(kwargs)
        meta = getattr(ufunc, method)(
            *[_meta_of(x) for x in inputs], **meta_kwargs
        )
        if not isinstance(meta, SymbolicArray):  # symbolic layer declined
            return NotImplemented

        fn = ufunc if method == "__call__" else getattr(ufunc, method)
        if kwargs:
            fn = partial(fn, **kwargs)
        result = defer(self.plan, fn, tuple(inputs), meta, label=ufunc.__name__)
        if out is not None:
            target = out[0] if isinstance(out, tuple) else out
            if isinstance(target, LazyArray):
                target.ref = result.ref
                target._fresh = False
                return target
            return NotImplemented
        return result

    def __array_function__(self, func, types, args, kwargs):
        meta = func(
            *_map_structure(args, _meta_of),
            **_map_structure(kwargs, _meta_of),
        )
        if not isinstance(meta, SymbolicArray):
            # Shape-only query (np.shape, np.ndim): already answerable.
            return meta

        # A sequence of arrays (np.vstack([...]), np.concatenate((...)))
        # is spread into top-level arguments, so each lazy is an edge.
        flat: list[Any] = []
        spec = []
        for a in args:
            if isinstance(a, (list, tuple)) and any(isinstance(x, LazyArray) for x in a):
                spec.append((type(a), len(a)))
                flat.extend(a)
            else:
                spec.append(None)
                flat.append(a)
        flat.extend(kwargs.values())
        fn = partial(_apply_function, func, tuple(spec), tuple(kwargs))
        return defer(self.plan, fn, tuple(flat), meta, label=func.__name__)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyArray(shape={self.shape}, dtype={self.dtype}, "
            f"t{self.ref.task.tid})"
        )


# ----------------------------------------------------------------------
# Machine-bound creation backend
# ----------------------------------------------------------------------

class ParallelOps:
    """Creation/coercion backend for ``Machine(backend="parallel")``.

    Array creation returns lazy leaves (constant tasks); coercing a
    real ndarray registers it as a plan *input leaf*, the boundary
    :meth:`~repro.engine.plan.Plan.rebind` swaps for plan replay.
    """

    def __init__(self, plan: Plan) -> None:
        self.plan = plan

    def kernel(self, p, fn, args: tuple, meta: Any, label: str, updates: tuple) -> Any:
        """:meth:`repro.machine.Machine.kernel` on this plan: one rank-``p``
        task whose results are fresh by contract."""
        return defer(self.plan, fn, args, meta, p, label, True, updates)

    def _leaf(self, fn, meta: SymbolicArray, label: str) -> LazyArray:
        """A rankless constant task whose result is a fresh allocation."""
        task = self.plan.add(fn, (), None, label, (), None, True)
        return LazyArray(self.plan, meta, Ref(task), fresh=True)

    def zeros(self, shape, dtype=np.float64):
        meta = SymbolicArray(shape, dtype)
        return self._leaf(partial(np.zeros, meta.shape, meta.dtype), meta, "zeros")

    def empty(self, shape, dtype=np.float64):
        # Engine buffers are always fully written before use (the
        # symbolic backend's empty == zeros convention); allocate zeros
        # so replayed plans cannot leak stale values.
        return self.zeros(shape, dtype=dtype)

    def eye(self, n, dtype=np.float64):
        meta = SymbolicArray((int(n), int(n)), dtype)
        return self._leaf(partial(np.eye, meta.shape[0], dtype=meta.dtype), meta, "eye")

    def asarray(self, x, dtype=None):
        if isinstance(x, LazyArray):
            return x if dtype is None else x.astype(dtype, copy=False)
        if isinstance(x, SymbolicArray):
            raise TypeError(
                "symbolic array given to a parallel-backend machine; "
                "construct the Machine with backend='symbolic'"
            )
        arr = np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)
        task = self.plan.add_input(arr)
        return LazyArray(self.plan, SymbolicArray.like(arr), Ref(task))
