"""The kernel seam: ``machine.kernel`` is how local work reaches a backend.

Contracts pinned here:

* **honest metas** -- every kernel's declared ``meta`` (what the
  symbolic backend returns and the engines size their lazy results by)
  equals the shape, dtype and arity of what the kernel computes, on
  all ten algorithms and three input dtypes;
* **fresh results** -- on the same runs, no kernel result shares memory
  with an argument or another result (the engines' write rule relies
  on it);
* **one call each** -- the metered drivers of the oldest kernels, and
  the collectives' combine, make exactly one ``machine.kernel`` call and
  read no backend flag but the flop-mask one;
* **same answer on every backend** -- argument errors surface at the
  call (not at ``materialize``, not never), ``solve_least_squares``
  meters identically and solves bit-identically on the engine, and the
  validation-only ``T`` of the 2D baselines is one recorded task.
"""

from __future__ import annotations

import inspect
from collections import Counter

import numpy as np
import pytest

from repro.backend import NumericBackend, SymbolicArray
from repro.collectives.binomial import combine
from repro.dist import BlockRowLayout, DistMatrix
from repro.machine import Machine
from repro.matmul import local_mm
from repro.qr import apply_wy, local_geqrt, reconstruct_t, solve_least_squares, t_from_v, tsqr
from repro.util import balanced_sizes
from repro.workloads import ALGORITHMS, drive, gaussian, run_qr

BACKENDS = ["numeric", "symbolic", "parallel", pytest.param("parallel-mp", marks=pytest.mark.mp)]


def _arrays(obj):
    """Every ndarray inside a (possibly nested) argument structure."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _arrays(o)
    elif isinstance(obj, dict):
        for o in obj.values():
            yield from _arrays(o)


class _CheckedBackend(NumericBackend):
    """Numeric execution that holds every kernel's result to its meta.

    And to the fresh-result contract: no result shares memory with an
    argument (written ones included) or with another result.
    """

    name = "numeric-checked"

    def __init__(self):
        self.labels = Counter()

    def run_kernel(self, machine, p, fn, args, meta, label="", updates=()):
        out = super().run_kernel(machine, p, fn, args, meta, label=label, updates=updates)
        self.labels[label] += 1
        if meta is None:
            assert out is None, label
            return out
        assert isinstance(out, tuple) == isinstance(meta, tuple), label
        pairs = zip(out, meta, strict=True) if isinstance(meta, tuple) else [(out, meta)]
        for value, declared in pairs:
            assert isinstance(declared, SymbolicArray), label
            assert (value.shape, value.dtype) == (declared.shape, declared.dtype), (
                label, value.shape, value.dtype, declared)
        results = list(out) if isinstance(out, tuple) else [out]
        inputs = list(_arrays(args))
        for k, value in enumerate(results):
            assert not any(np.shares_memory(value, a) for a in inputs), (label, "argument")
            assert not any(np.shares_memory(value, o) for o in results[k + 1:]), (
                label, "result")
        return out


def _shape(alg):
    return (24, 48, 6) if alg == "wide" else (96, 24, 6) if alg.endswith("2d") else (256, 16, 4)


class TestMetasMatchValues:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_every_dispatch_returns_what_it_declared(self, alg, dtype):
        m, n, P = _shape(alg)
        A = gaussian(m, n, seed=3)
        if dtype is np.complex128:
            A = A + 1j * gaussian(m, n, seed=4)
        backend = _CheckedBackend()
        run_qr(alg, A.astype(dtype), P, validate=True, backend=backend)
        assert sum(backend.labels.values()) > 0

    def test_the_oldest_kernels_are_among_those_checked(self):
        backend = _CheckedBackend()
        for alg in ("caqr3d", "applyq", "house2d"):
            m, n, P = _shape(alg)
            run_qr(alg, gaussian(m, n, seed=3), P, validate=True, backend=backend)
        assert {"geqrt", "apply_wy", "pack_triu", "unpack_triu", "mm", "mm1d_partial",
                "caqr1d_T12", "reconstruct_t", "reduce_combine",
                "reduce_scatter_add"} <= set(backend.labels)


class TestOneCallEach:
    @pytest.mark.parametrize(
        "driver", [local_geqrt, apply_wy, local_mm, t_from_v, reconstruct_t, combine])
    def test_driver_is_one_kernel_call_and_no_backend_branch(self, driver):
        source = inspect.getsource(driver)
        assert source.count("machine.kernel(") == 1
        for asked in ("is_symbolic", "is_lazy", ".parallel", ".symbolic", "defer("):
            assert asked not in source


class TestSameAnswerOnEveryBackend:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocked_complex_panel_is_refused_at_the_call(self, backend):
        machine = Machine(2, backend=backend, workers=1)
        A = machine.ops.asarray(np.ones((6, 3)) + 1j)
        before = len(machine.plan.tasks) if machine.plan is not None else 0
        with pytest.raises(TypeError, match="float64 panels only, got complex128"):
            local_geqrt(machine, 0, A, blocked=True)
        assert machine.report().total_flops == 0
        if machine.plan is not None:  # nothing recorded, so no pool was ever started
            assert len(machine.plan.tasks) == before

    def _least_squares(self, backend):
        m, n, P = 96, 6, 4
        A, rhs = gaussian(m, n, seed=5), gaussian(m, 2, seed=6)
        machine = Machine(P, backend=backend, workers=2)
        layout = BlockRowLayout(balanced_sizes(m, P))
        if backend == "symbolic":
            A, rhs = SymbolicArray(A.shape), SymbolicArray(rhs.shape)
        f = tsqr(DistMatrix.from_global(machine, A, layout), root=0)
        x = solve_least_squares(f.V, f.T, f.R, DistMatrix.from_global(machine, rhs, layout), 0)
        return machine, x

    def test_least_squares_meters_alike_and_solves_bitwise_alike(self):
        (num, x), (sym, xs), (par, xp) = (
            self._least_squares(b) for b in ("numeric", "symbolic", "parallel"))
        assert num.report() == sym.report() == par.report()
        assert num.words_by_label == sym.words_by_label == par.words_by_label
        assert (xs.shape, xs.dtype) == (x.shape, x.dtype)
        backsolve = [t for t in par.plan.tasks if t.label == "ls_backsolve"]
        assert len(backsolve) == 1 and backsolve[0].fn.__closure__ is None
        np.testing.assert_array_equal(par.materialize(xp), x)
        want = np.linalg.lstsq(gaussian(96, 6, seed=5), gaussian(96, 2, seed=6), rcond=None)[0]
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-13)

    def test_validation_t_of_a_2d_baseline_is_one_recorded_task(self):
        tasks = {}
        for validate in (True, False):
            machine = Machine(6, backend="parallel", workers=1)
            drive("house2d", machine, gaussian(48, 24, seed=1), {}, validate)
            tasks[validate] = Counter(t.label for t in machine.plan.tasks)
        assert tasks[True] - tasks[False] == Counter({"reconstruct_t": 1})
        assert sum(tasks[True].values()) == sum(tasks[False].values()) + 1
